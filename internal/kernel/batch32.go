package kernel

import "math"

// Batch32 extends Kernel with a single-precision batched panel evaluation:
// coordinates and densities are read as float32 SoA panels (the Layout's
// device mirrors) and every pair interaction is computed in float32 — the
// paper's GPU precision, whose round-off sits far below the FMM's own
// check-surface truncation error. Within one panel call the per-target
// partial sum is carried in float32 (panels are a few hundred pairs at
// most, so the extra round-off is O(ns·eps32) and stays inside the
// truncation budget — precision_test.go at the repo root checks exactly
// that); across panels the sums accumulate in float64 out slices, so the
// long global reductions never lose float64 carry.
//
// Singular pairs are suppressed arithmetically, in the spirit of the
// paper's Algorithm 4: a zero squared distance is mapped to +Inf, and the
// kernel's own division then annihilates the pair (d/√(+Inf) = 0) — no
// coordinate comparison, no NaN ever reaches an accumulator. The map is a
// compare against zero that never takes its branch on regular data, which
// costs less than the bit-twiddled NaN/max form (internal/gpu keeps that
// form for its per-pair Laplace kernel); the result is identical either
// way — a coincident pair contributes nothing, exactly as with Eval.
type Batch32 interface {
	Kernel
	// EvalPanel32 accumulates into out the potentials at the nt target
	// points (tx, ty, tz) due to the densities den at the ns source points
	// (sx, sy, sz). den holds SrcDim float32 components per source point;
	// out holds TrgDim float64 components per target point. As with
	// Batch.EvalPanel, target i's contributions accumulate in ascending
	// source order from a zero partial sum added to out[i·TrgDim:] once,
	// and selfOffset is only a hint — coincident pairs contribute zero
	// either way.
	EvalPanel32(tx, ty, tz, sx, sy, sz []float32, den []float32, out []float64, selfOffset int)
}

// AsBatch32 returns the single-precision panel evaluator for k when it has
// one (the built-in kernels do). There is no generic fallback: a Kernel
// without a native float32 panel form simply stays on the float64 path, so
// ok=false is a capability signal, not an error.
func AsBatch32(k Kernel) (Batch32, bool) {
	b, ok := k.(Batch32)
	return b, ok
}

// inf32 annihilates a singular pair: substituting it for a zero squared
// distance makes every kernel's division return zero for that pair.
var inf32 = float32(math.Inf(1))

// EvalPanel32 implements Batch32. Targets are register-blocked three wide
// with a scalar tail: each source load feeds three independent
// difference/square/sqrt chains, which amortizes the source memory traffic
// and overlaps the SQRTSS/DIVSS latency. Unlike the float64 panel — which
// is divider-bound and wants four lanes in flight — the float32 loop is
// issue-bound, and three lanes are what fit the sixteen XMM registers
// (nine coordinate components, three accumulators, the source triple and
// density) without spilling; four- and eight-lane forms both measured
// slower. The 1/4π scale is folded out of the inner loop into the float64
// writeback.
//
//fmm:hotpath
func (Laplace) EvalPanel32(tx, ty, tz, sx, sy, sz []float32, den []float32, out []float64, _ int) {
	ns := len(sx)
	sy, sz, den = sy[:ns], sz[:ns], den[:ns]
	nt := len(tx)
	ty, tz, out = ty[:nt], tz[:nt], out[:nt]
	i := 0
	for ; i+2 < nt; i += 3 {
		x0, y0, z0 := tx[i], ty[i], tz[i]
		x1, y1, z1 := tx[i+1], ty[i+1], tz[i+1]
		x2, y2, z2 := tx[i+2], ty[i+2], tz[i+2]
		var a0, a1, a2 float32
		for j := range sx {
			xs, ys, zs, d := sx[j], sy[j], sz[j], den[j]
			dx0, dy0, dz0 := x0-xs, y0-ys, z0-zs
			dx1, dy1, dz1 := x1-xs, y1-ys, z1-zs
			dx2, dy2, dz2 := x2-xs, y2-ys, z2-zs
			r0 := dx0*dx0 + dy0*dy0 + dz0*dz0
			r1 := dx1*dx1 + dy1*dy1 + dz1*dz1
			r2 := dx2*dx2 + dy2*dy2 + dz2*dz2
			if r0 == 0 {
				r0 = inf32
			}
			if r1 == 0 {
				r1 = inf32
			}
			if r2 == 0 {
				r2 = inf32
			}
			a0 += d / sqrt32(r0)
			a1 += d / sqrt32(r1)
			a2 += d / sqrt32(r2)
		}
		out[i] += float64(a0) * invFourPi
		out[i+1] += float64(a1) * invFourPi
		out[i+2] += float64(a2) * invFourPi
	}
	for ; i < nt; i++ {
		x, y, z := tx[i], ty[i], tz[i]
		var acc float32
		for j := range sx {
			dx := x - sx[j]
			dy := y - sy[j]
			dz := z - sz[j]
			r2 := dx*dx + dy*dy + dz*dz
			if r2 == 0 {
				r2 = inf32
			}
			acc += den[j] / sqrt32(r2)
		}
		out[i] += float64(acc) * invFourPi
	}
}

// EvalPanel32 implements Batch32. Targets are blocked in pairs — the
// three-component Stokeslet already carries six live accumulators per pair
// of targets, so wider blocking would spill. 1/r³ is formed as (1/r)³ with
// two multiplies instead of a second divide, and the 1/8πμ scale is folded
// into the float64 writeback. The +Inf substitution zeroes both invR and
// invR3 for a singular pair, so both Stokeslet terms vanish.
//
//fmm:hotpath
func (Stokes) EvalPanel32(tx, ty, tz, sx, sy, sz []float32, den []float32, out []float64, _ int) {
	ns := len(sx)
	sy, sz, den = sy[:ns], sz[:ns], den[:3*ns]
	nt := len(tx)
	ty, tz, out = ty[:nt], tz[:nt], out[:3*nt]
	i := 0
	for ; i+1 < nt; i += 2 {
		x0, y0, z0 := tx[i], ty[i], tz[i]
		x1, y1, z1 := tx[i+1], ty[i+1], tz[i+1]
		var a0, a1, a2, b0, b1, b2 float32
		for j := range sx {
			xs, ys, zs := sx[j], sy[j], sz[j]
			d0, d1, d2 := den[3*j], den[3*j+1], den[3*j+2]
			dx0, dy0, dz0 := x0-xs, y0-ys, z0-zs
			dx1, dy1, dz1 := x1-xs, y1-ys, z1-zs
			r20 := dx0*dx0 + dy0*dy0 + dz0*dz0
			r21 := dx1*dx1 + dy1*dy1 + dz1*dz1
			if r20 == 0 {
				r20 = inf32
			}
			if r21 == 0 {
				r21 = inf32
			}
			invR0 := 1 / sqrt32(r20)
			invR1 := 1 / sqrt32(r21)
			invR30 := invR0 * invR0 * invR0
			invR31 := invR1 * invR1 * invR1
			dot0 := dx0*d0 + dy0*d1 + dz0*d2
			dot1 := dx1*d0 + dy1*d1 + dz1*d2
			a0 += d0*invR0 + dx0*dot0*invR30
			a1 += d1*invR0 + dy0*dot0*invR30
			a2 += d2*invR0 + dz0*dot0*invR30
			b0 += d0*invR1 + dx1*dot1*invR31
			b1 += d1*invR1 + dy1*dot1*invR31
			b2 += d2*invR1 + dz1*dot1*invR31
		}
		out[3*i] += float64(a0) * invEightPi
		out[3*i+1] += float64(a1) * invEightPi
		out[3*i+2] += float64(a2) * invEightPi
		out[3*i+3] += float64(b0) * invEightPi
		out[3*i+4] += float64(b1) * invEightPi
		out[3*i+5] += float64(b2) * invEightPi
	}
	for ; i < nt; i++ {
		x, y, z := tx[i], ty[i], tz[i]
		var a0, a1, a2 float32
		for j := range sx {
			dx := x - sx[j]
			dy := y - sy[j]
			dz := z - sz[j]
			r2 := dx*dx + dy*dy + dz*dz
			if r2 == 0 {
				r2 = inf32
			}
			invR := 1 / sqrt32(r2)
			invR3 := invR * invR * invR
			d0, d1, d2 := den[3*j], den[3*j+1], den[3*j+2]
			dot := dx*d0 + dy*d1 + dz*d2
			a0 += d0*invR + dx*dot*invR3
			a1 += d1*invR + dy*dot*invR3
			a2 += d2*invR + dz*dot*invR3
		}
		out[3*i] += float64(a0) * invEightPi
		out[3*i+1] += float64(a1) * invEightPi
		out[3*i+2] += float64(a2) * invEightPi
	}
}

// EvalPanel32 implements Batch32. Four-wide target blocking; the screened
// decay e^(−λr) has no float32 library form, so the exponent round-trips
// through math.Exp — still one call per pair, with four independent chains
// hiding its latency behind the neighbours' sqrt/divide work. The +Inf
// substitution alone is not enough here (λ·Inf is NaN for λ = 0, where
// Yukawa degenerates to Laplace), so the per-pair term keeps the
// Algorithm-4 NaN squash: e^0/0 = +Inf on a singular pair, nanZero32Cheap
// turns it into NaN and then zero.
//
//fmm:hotpath
func (y Yukawa) EvalPanel32(tx, ty, tz, sx, sy, sz []float32, den []float32, out []float64, _ int) {
	lam := float32(y.Lambda)
	ns := len(sx)
	sy, sz, den = sy[:ns], sz[:ns], den[:ns]
	nt := len(tx)
	ty, tz, out = ty[:nt], tz[:nt], out[:nt]
	i := 0
	for ; i+3 < nt; i += 4 {
		x0, y0, z0 := tx[i], ty[i], tz[i]
		x1, y1, z1 := tx[i+1], ty[i+1], tz[i+1]
		x2, y2, z2 := tx[i+2], ty[i+2], tz[i+2]
		x3, y3, z3 := tx[i+3], ty[i+3], tz[i+3]
		var a0, a1, a2, a3 float32
		for j := range sx {
			xs, ys, zs, d := sx[j], sy[j], sz[j], den[j]
			dx0, dy0, dz0 := x0-xs, y0-ys, z0-zs
			dx1, dy1, dz1 := x1-xs, y1-ys, z1-zs
			dx2, dy2, dz2 := x2-xs, y2-ys, z2-zs
			dx3, dy3, dz3 := x3-xs, y3-ys, z3-zs
			r0 := sqrt32(dx0*dx0 + dy0*dy0 + dz0*dz0)
			r1 := sqrt32(dx1*dx1 + dy1*dy1 + dz1*dz1)
			r2 := sqrt32(dx2*dx2 + dy2*dy2 + dz2*dz2)
			r3 := sqrt32(dx3*dx3 + dy3*dy3 + dz3*dz3)
			a0 += nanZero32Cheap(exp32(-lam*r0)/r0) * d
			a1 += nanZero32Cheap(exp32(-lam*r1)/r1) * d
			a2 += nanZero32Cheap(exp32(-lam*r2)/r2) * d
			a3 += nanZero32Cheap(exp32(-lam*r3)/r3) * d
		}
		out[i] += float64(a0) * invFourPi
		out[i+1] += float64(a1) * invFourPi
		out[i+2] += float64(a2) * invFourPi
		out[i+3] += float64(a3) * invFourPi
	}
	for ; i < nt; i++ {
		x, y, z := tx[i], ty[i], tz[i]
		var acc float32
		for j := range sx {
			dx := x - sx[j]
			dy := y - sy[j]
			dz := z - sz[j]
			r := sqrt32(dx*dx + dy*dy + dz*dz)
			acc += nanZero32Cheap(exp32(-lam*r)/r) * den[j]
		}
		out[i] += float64(acc) * invFourPi
	}
}

// nanZero32Cheap is the float32 Algorithm-4 squash in its branch form:
// x + (x − x) turns ±Inf into NaN and is the identity on finite values
// (it also normalizes −0 to +0, which is harmless for an additive
// contribution), and the x ≠ x compare — never true on regular data, so
// the branch predicts perfectly — replaces the bit-twiddled NaN/max form
// where latency matters more than strict branchlessness.
func nanZero32Cheap(x float32) float32 {
	x = x + (x - x)
	if x != x {
		return 0
	}
	return x
}

// sqrt32 is a single-precision square root (compiled to a SQRTSS
// instruction on amd64 — the float64 round trip is free).
func sqrt32(x float32) float32 { return float32(math.Sqrt(float64(x))) }

// exp32 is a single-precision e^x via the float64 library routine.
func exp32(x float32) float32 { return float32(math.Exp(float64(x))) }
