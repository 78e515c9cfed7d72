package gpu

import (
	"math"

	"kifmm/internal/kifmm"
)

// The device's float32 half of the paper's data-structure translation and
// its scalar kernel. laplaceEval32 reproduces the paper's branch-free
// self-interaction guard: in IEEE arithmetic max(NaN, x) = x, so a
// zero-distance pair (whose 1/r factor is +Inf and becomes NaN after
// Inf−Inf) is squashed to zero by a max against 0 instead of a conditional.

const invFourPi = 1.0 / (4 * math.Pi)

// den32 returns a reused single-precision copy of e's per-point densities
// (scalar kernels), refreshed on each call: the density-dependent half of
// the device's data-structure translation, whose density-independent half
// is the Layout's X32 mirrors.
func (a *FMMAccel) den32(e *kifmm.Engine) []float32 {
	if len(a.den) != len(e.Density) {
		a.den = make([]float32, len(e.Density))
	}
	for i, d := range e.Density {
		a.den[i] = float32(d)
	}
	return a.den
}

// laplaceEval32 returns the single-precision Laplace potential contribution
// density/(4π‖t−s‖), using the IEEE NaN/max trick so a coincident pair
// contributes exactly 0 with no branch.
func laplaceEval32(tx, ty, tz, sx, sy, sz, density float32) float32 {
	dx := tx - sx
	dy := ty - sy
	dz := tz - sz
	r2 := dx*dx + dy*dy + dz*dz
	inv := float32(invFourPi) / float32(math.Sqrt(float64(r2))) // +Inf when r2 == 0
	inv = inv + (inv - inv)                                     // NaN when infinite, unchanged otherwise
	inv = max32(inv, 0)                                         // IEEE max: NaN -> 0
	return inv * density
}

// isNaN32 returns an all-ones mask when bits encode a NaN and zero
// otherwise, with no branch: a float32 is NaN iff, after dropping the sign
// bit (the <<1), the remaining exponent+mantissa exceed the Inf pattern.
// The subtraction then goes negative exactly for NaNs, and the arithmetic
// shift smears its sign across the word.
func isNaN32(bits uint32) uint32 {
	return uint32(int64(0xFF000000-uint64(bits<<1)) >> 63)
}

// max32 implements the IEEE-754 maxNum: max32(NaN, x) = x, max32(x, NaN) = x,
// max32(NaN, NaN) = NaN, and max32(+0, −0) = +0. It is branch-free, per the
// paper's Algorithm 4 discipline (the Go builtin max cannot be used here: it
// propagates NaN instead of discarding it). The comparison maps each operand
// to a monotone integer key — flip the sign bit for non-negatives, all bits
// for negatives — so one integer subtraction orders any two non-NaN floats,
// including ±0; NaN operands are then overridden by mask selection.
func max32(a, b float32) float32 {
	ab := math.Float32bits(a)
	bb := math.Float32bits(b)
	aNaN := isNaN32(ab)
	bNaN := isNaN32(bb)
	ak := ab ^ (uint32(int32(ab)>>31) | 0x80000000)
	bk := bb ^ (uint32(int32(bb)>>31) | 0x80000000)
	ge := uint32(^((int64(ak) - int64(bk)) >> 63)) // all-ones when a >= b
	r := (ab & ge) | (bb &^ ge)
	r = (r &^ aNaN) | (bb & aNaN) // NaN a loses to b
	r = (r &^ bNaN) | (ab & bNaN) // NaN b loses to a (both NaN: NaN)
	return math.Float32frombits(r)
}
