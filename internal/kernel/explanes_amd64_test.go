//go:build !purego

package kernel

import (
	"math"
	"math/rand"
	"testing"
)

// expBoundaries are where math.Exp leaves its normal path or its result
// changes class: the biased exponent reaching 0 (k = −1023) and −53 (the
// result +0), the smallest normal and the smallest subnormal result, the
// biased exponent reaching 0x7FF below the Overflow threshold, and Overflow.
var expBoundaries = []float64{
	-1022.5 * math.Ln2, -1075.5 * math.Ln2,
	math.Log(0x1p-1022), math.Log(math.SmallestNonzeroFloat64),
	1023.5 * math.Ln2, expOverflow,
}

// TestExpLanes compares the vector kernels' four-lane exp with math.Exp bit
// for bit (a NaN's payload included) on over a million arguments: a jittered
// grid over [−746, 710], 4096 consecutive float64 values around each of
// expBoundaries — the two underflow boundaries, the subnormal results between
// them, the overflow threshold — and the special values: ±0, NaN, ±Inf,
// subnormal and huge arguments, and arguments beyond CVTSD2SL's int32 range.
func TestExpLanes(t *testing.T) {
	const grid = 1 << 20
	rng := rand.New(rand.NewSource(9))
	x := make([]float64, 0, grid+4096*len(expBoundaries)+64)
	for i := range grid {
		x = append(x, -746+1456*(float64(i)+rng.Float64())/grid)
	}
	for _, b := range expBoundaries {
		for d := int64(-2048); d < 2048; d++ {
			x = append(x, math.Float64frombits(uint64(int64(math.Float64bits(b))+d)))
		}
	}
	for _, v := range []float64{
		0, math.Copysign(0, -1), math.NaN(), math.Float64frombits(0xfff8000000000123), math.Inf(1), math.Inf(-1),
		math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, 0x1p-1022, -0x1p-1022, 0x1p-60, -0x1p-60,
		math.MaxFloat64, -math.MaxFloat64, 1e300, -1e300, 0x1p31, -0x1p31, 0x1p32 * math.Ln2, -0x1p32 * math.Ln2,
		-746, -745.5, -745, -740, -720, -709, -708, 709, 709.5, 709.78, 710, 1, -1,
	} {
		x = append(x, v)
	}
	for len(x)%4 != 0 {
		x = append(x, 0.5)
	}
	if !yukawaAVX2 {
		t.Skip("no vector exp: the CPU has no AVX2, or math.Exp does not take its FMA path here")
	}
	y := make([]float64, len(x))
	expAVX2(&x[0], &y[0], len(x))
	bad := 0
	for i, v := range x {
		if g, w := math.Float64bits(y[i]), math.Float64bits(math.Exp(v)); g != w {
			if bad++; bad <= 10 {
				t.Errorf("exp(%v = %#x): lanes %#x (%v), math.Exp %#x (%v)", v, math.Float64bits(v), g, y[i], w, math.Exp(v))
			}
		}
	}
	if bad > 0 {
		t.Errorf("%d of %d arguments differ", bad, len(x))
	}
}
