package mpi

import (
	"encoding/binary"
	"math"
)

// Fixed-width little-endian codecs for the payload types the distributed
// algorithms exchange. Explicit codecs (rather than reflection-based
// encoding) keep message sizes predictable, which matters because the
// benchmarks reason about byte volumes.

// Float64sToBytes encodes v little-endian.
func Float64sToBytes(v []float64) []byte {
	out := make([]byte, 8*len(v))
	for i, x := range v {
		binary.LittleEndian.PutUint64(out[8*i:], math.Float64bits(x))
	}
	return out
}

// BytesToFloat64s decodes a Float64sToBytes payload.
func BytesToFloat64s(b []byte) []float64 {
	if len(b)%8 != 0 {
		panic("mpi: float64 payload length not a multiple of 8")
	}
	out := make([]float64, len(b)/8)
	for i := range out {
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[8*i:]))
	}
	return out
}

// Int64sToBytes encodes v little-endian.
func Int64sToBytes(v []int64) []byte {
	out := make([]byte, 8*len(v))
	for i, x := range v {
		binary.LittleEndian.PutUint64(out[8*i:], uint64(x))
	}
	return out
}

// BytesToInt64s decodes an Int64sToBytes payload.
func BytesToInt64s(b []byte) []int64 {
	if len(b)%8 != 0 {
		panic("mpi: int64 payload length not a multiple of 8")
	}
	out := make([]int64, len(b)/8)
	for i := range out {
		out[i] = int64(binary.LittleEndian.Uint64(b[8*i:]))
	}
	return out
}
