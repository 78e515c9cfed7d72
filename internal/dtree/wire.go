package dtree

import (
	"encoding/binary"
	"math"

	"kifmm/internal/geom"
	"kifmm/internal/morton"
)

// Wire formats. Leaves travel during repartitioning; octant records (key +
// flags + optional points) travel during the LET ghost exchange.

func appendPoints(b []byte, pts []geom.Point) []byte {
	var n [4]byte
	binary.LittleEndian.PutUint32(n[:], uint32(len(pts)))
	b = append(b, n[:]...)
	var f [8]byte
	for _, p := range pts {
		for _, v := range []float64{p.X, p.Y, p.Z} {
			binary.LittleEndian.PutUint64(f[:], math.Float64bits(v))
			b = append(b, f[:]...)
		}
	}
	return b
}

func decodePoints(b []byte) ([]geom.Point, []byte) {
	n := int(binary.LittleEndian.Uint32(b))
	b = b[4:]
	pts := make([]geom.Point, n)
	for i := 0; i < n; i++ {
		pts[i].X = math.Float64frombits(binary.LittleEndian.Uint64(b[0:]))
		pts[i].Y = math.Float64frombits(binary.LittleEndian.Uint64(b[8:]))
		pts[i].Z = math.Float64frombits(binary.LittleEndian.Uint64(b[16:]))
		b = b[24:]
	}
	return pts, b
}

func appendFloats(b []byte, v []float64) []byte {
	var n [4]byte
	binary.LittleEndian.PutUint32(n[:], uint32(len(v)))
	b = append(b, n[:]...)
	var f [8]byte
	for _, x := range v {
		binary.LittleEndian.PutUint64(f[:], math.Float64bits(x))
		b = append(b, f[:]...)
	}
	return b
}

func decodeFloats(b []byte) ([]float64, []byte) {
	n := int(binary.LittleEndian.Uint32(b))
	b = b[4:]
	out := make([]float64, n)
	for i := 0; i < n; i++ {
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(b))
		b = b[8:]
	}
	if len(out) == 0 {
		return nil, b
	}
	return out, b
}

// encodeLeaves serializes a batch of leaves (points and densities).
func encodeLeaves(ls []Leaf) []byte {
	var b []byte
	var n [4]byte
	binary.LittleEndian.PutUint32(n[:], uint32(len(ls)))
	b = append(b, n[:]...)
	for _, l := range ls {
		b = l.Key.AppendBinary(b)
		b = appendPoints(b, l.Pts)
		b = appendFloats(b, l.Den)
	}
	return b
}

func decodeLeaves(b []byte) []Leaf {
	if len(b) == 0 {
		return nil
	}
	n := int(binary.LittleEndian.Uint32(b))
	b = b[4:]
	out := make([]Leaf, n)
	for i := 0; i < n; i++ {
		out[i].Key, b = morton.DecodeKey(b)
		out[i].Pts, b = decodePoints(b)
		out[i].Den, b = decodeFloats(b)
	}
	return out
}

// ghostOctant is one octant shipped during LET construction.
type ghostOctant struct {
	Key    morton.Key
	IsLeaf bool
	Pts    []geom.Point // present for leaves only
}

func encodeGhosts(gs []ghostOctant) []byte {
	var b []byte
	var n [4]byte
	binary.LittleEndian.PutUint32(n[:], uint32(len(gs)))
	b = append(b, n[:]...)
	for _, g := range gs {
		b = g.Key.AppendBinary(b)
		if g.IsLeaf {
			b = append(b, 1)
			b = appendPoints(b, g.Pts)
		} else {
			b = append(b, 0)
		}
	}
	return b
}

func decodeGhosts(b []byte) []ghostOctant {
	if len(b) == 0 {
		return nil
	}
	n := int(binary.LittleEndian.Uint32(b))
	b = b[4:]
	out := make([]ghostOctant, n)
	for i := 0; i < n; i++ {
		out[i].Key, b = morton.DecodeKey(b)
		out[i].IsLeaf = b[0] == 1
		b = b[1:]
		if out[i].IsLeaf {
			out[i].Pts, b = decodePoints(b)
		}
	}
	return out
}
