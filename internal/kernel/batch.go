package kernel

import (
	"math"

	"kifmm/internal/geom"
)

// Batch extends Kernel with a batched panel evaluation on structure-of-arrays
// coordinate slices: one call accumulates a whole target panel against a
// whole source panel. This is the host-side analogue of the paper's
// data-structure translation — the pointer-free, streaming-friendly form the
// per-octant operators want — and it removes the dynamic Eval dispatch from
// the innermost loop of the near-field phases, where it would otherwise be
// paid once per source-target pair.
//
// Implementations suppress singular pairs with the IEEE identity
// max(NaN, x) = x of the paper's Algorithm 4 (see nanZero): the +Inf that a
// zero-distance pair produces is turned into NaN by Inf − Inf and squashed
// to 0, instead of branching on the coordinates, so the contract matches
// Eval exactly — a coincident pair contributes nothing.
type Batch interface {
	Kernel
	// EvalPanel accumulates into out the potentials at the nt target points
	// (tx, ty, tz) due to the densities den at the ns source points
	// (sx, sy, sz). den holds SrcDim components per source point
	// (len ns·SrcDim); out holds TrgDim components per target point
	// (len nt·TrgDim). Within one call, target i's contributions accumulate
	// in ascending source order, starting from a zero partial sum that is
	// added to out[i·TrgDim:] once — the fixed accumulation order that keeps
	// results reproducible across execution paths.
	//
	// selfOffset is a hint about singular pairs: selfOffset >= 0 declares
	// that target i and source i+selfOffset may be the same physical point
	// (overlapping panels, e.g. a leaf against itself in the U-list);
	// selfOffset < 0 declares the panels disjoint. The hint never changes
	// the result — coincident pairs contribute zero either way, exactly as
	// with Eval — it only licenses implementations to pick a cheaper guard.
	EvalPanel(tx, ty, tz, sx, sy, sz []float64, den, out []float64, selfOffset int)
	// EvalPair evaluates two disjoint panels against each other, both
	// directions at once: panel a (ax, ay, az with densities aden) and
	// panel b (bx, by, bz with densities bden) each receive the other's
	// field,
	//
	//	aout[i] += Σ_j K(a_i, b_j)·bden_j   (from +0, ascending j, added once)
	//	bpart[j] = Σ_i K(b_j, a_i)·aden_i   (from +0, ascending i, assigned)
	//
	// aout is exactly what EvalPanel(a ← b) would leave there and bpart
	// exactly what EvalPanel(b ← a) would leave in a zeroed buffer, bit for
	// bit. The built-in kernels are symmetric under the exchange of target
	// and source — RN(x − y) = −RN(y − x), so r², 1/r, e^(−λr)/r and the
	// Stokeslet's (dx·dot) come out the same from either side — and they
	// pay for each pair's square root, divides and exp once instead of
	// twice. aden holds len(ax)·SrcDim values, bden len(bx)·SrcDim, aout
	// len(ax)·TrgDim and bpart len(bx)·TrgDim.
	EvalPair(ax, ay, az, bx, by, bz, aden, bden, aout, bpart []float64)
}

// AsBatch returns the batched panel evaluator for k: k itself when it
// implements Batch (the built-in kernels do), otherwise a generic fallback
// that wraps Eval pair by pair, so third-party Kernel implementations work
// unchanged on the panel-based evaluation paths.
func AsBatch(k Kernel) Batch {
	if b, ok := k.(Batch); ok {
		return b
	}
	return genericBatch{k}
}

// genericBatch adapts any Kernel to Batch via pairwise Eval calls. Eval
// already skips singular pairs, so selfOffset is ignored.
type genericBatch struct {
	Kernel
}

// EvalPanel implements Batch. Eval accumulates into its output, so each
// target's partial sum is built in out itself from zero, and the value out
// held before is added to it once afterwards — the contract's order.
func (g genericBatch) EvalPanel(tx, ty, tz, sx, sy, sz []float64, den, out []float64, _ int) {
	sd, td := g.SrcDim(), g.TrgDim()
	var small [8]float64
	held := small[:]
	if td > len(small) {
		//fmm:allow hotalloc only a third-party kernel with more than eight target components gets here, once per call
		held = make([]float64, td)
	}
	held = held[:td]
	for i := range tx {
		t := geom.Point{X: tx[i], Y: ty[i], Z: tz[i]}
		o := out[i*td : (i+1)*td]
		copy(held, o)
		clear(o)
		for j := range sx {
			s := geom.Point{X: sx[j], Y: sy[j], Z: sz[j]}
			g.Eval(t, s, den[j*sd:(j+1)*sd], o)
		}
		for c := range o {
			o[c] += held[c]
		}
	}
}

// EvalPair implements Batch with the two EvalPanel calls it is defined by,
// which is correct for any kernel, symmetric or not.
func (g genericBatch) EvalPair(ax, ay, az, bx, by, bz, aden, bden, aout, bpart []float64) {
	g.EvalPanel(ax, ay, az, bx, by, bz, bden, aout, -1)
	clear(bpart)
	g.EvalPanel(bx, by, bz, ax, ay, az, aden, bpart, -1)
}

// nanZero is the float64 form of the paper's Algorithm 4 self-interaction
// guard (kernel32.go carries the float32 one): x + (x − x) is exactly x for
// finite x but NaN for ±Inf, and the IEEE max(NaN, 0) = 0 then squashes the
// singular pair's contribution without comparing coordinates.
func nanZero(x float64) float64 {
	x = x + (x - x)
	if x != x { // IEEE max: max(NaN, 0) = 0
		return 0
	}
	return x
}

// EvalPanel implements Batch: the AVX2 kernel (panel_amd64.s) takes the
// leading multiple of four targets where the build and the CPU have one, and
// laplacePanelGo the rest — the same per-target sums either way, bit for bit.
//
//fmm:hotpath
func (Laplace) EvalPanel(tx, ty, tz, sx, sy, sz []float64, den, out []float64, _ int) {
	laplacePanelGo(tx, ty, tz, sx, sy, sz, den, out, laplacePanelVec(tx, ty, tz, sx, sy, sz, den, out))
}

// laplacePanelGo is the Go loop over targets i ≥ start: the tail of the
// vector kernel, the whole kernel on a build or CPU without one, and the
// oracle the vector kernel is tested against. The kernel constant is hoisted
// out of the pair loop and the Algorithm 4 guard stands in place of Eval's
// branch. The reslicings assert the panel lengths once so the compiler drops
// the per-pair bounds checks, and targets are register-blocked four wide with
// a two-wide and then scalar tail: each source load feeds four independent
// sqrt/divide chains, which quarters the source memory traffic and overlaps
// the divider latency. Each target's partial sum still accumulates in
// ascending source order, so blocking does not change a single bit of the
// result.
//
//fmm:hotpath
func laplacePanelGo(tx, ty, tz, sx, sy, sz, den, out []float64, start int) {
	ns := len(sx)
	sy, sz, den = sy[:ns], sz[:ns], den[:ns]
	nt := len(tx)
	ty, tz, out = ty[:nt], tz[:nt], out[:nt]
	i := start
	for ; i+3 < nt; i += 4 {
		x0, y0, z0 := tx[i], ty[i], tz[i]
		x1, y1, z1 := tx[i+1], ty[i+1], tz[i+1]
		x2, y2, z2 := tx[i+2], ty[i+2], tz[i+2]
		x3, y3, z3 := tx[i+3], ty[i+3], tz[i+3]
		var a0, a1, a2, a3 float64
		for j := range sx {
			xs, ys, zs, d := sx[j], sy[j], sz[j], den[j]
			dx0, dy0, dz0 := x0-xs, y0-ys, z0-zs
			dx1, dy1, dz1 := x1-xs, y1-ys, z1-zs
			dx2, dy2, dz2 := x2-xs, y2-ys, z2-zs
			dx3, dy3, dz3 := x3-xs, y3-ys, z3-zs
			r0 := dx0*dx0 + dy0*dy0 + dz0*dz0
			r1 := dx1*dx1 + dy1*dy1 + dz1*dz1
			r2 := dx2*dx2 + dy2*dy2 + dz2*dz2
			r3 := dx3*dx3 + dy3*dy3 + dz3*dz3
			a0 += nanZero(invFourPi/math.Sqrt(r0)) * d
			a1 += nanZero(invFourPi/math.Sqrt(r1)) * d
			a2 += nanZero(invFourPi/math.Sqrt(r2)) * d
			a3 += nanZero(invFourPi/math.Sqrt(r3)) * d
		}
		out[i] += a0
		out[i+1] += a1
		out[i+2] += a2
		out[i+3] += a3
	}
	for ; i+1 < nt; i += 2 {
		x0, y0, z0 := tx[i], ty[i], tz[i]
		x1, y1, z1 := tx[i+1], ty[i+1], tz[i+1]
		var a0, a1 float64
		for j := range sx {
			xs, ys, zs, d := sx[j], sy[j], sz[j], den[j]
			dx0, dy0, dz0 := x0-xs, y0-ys, z0-zs
			dx1, dy1, dz1 := x1-xs, y1-ys, z1-zs
			r0 := dx0*dx0 + dy0*dy0 + dz0*dz0
			r1 := dx1*dx1 + dy1*dy1 + dz1*dz1
			a0 += nanZero(invFourPi/math.Sqrt(r0)) * d
			a1 += nanZero(invFourPi/math.Sqrt(r1)) * d
		}
		out[i] += a0
		out[i+1] += a1
	}
	for ; i < nt; i++ {
		x, y, z := tx[i], ty[i], tz[i]
		var acc float64
		for j := range sx {
			dx := x - sx[j]
			dy := y - sy[j]
			dz := z - sz[j]
			r2 := dx*dx + dy*dy + dz*dz
			acc += nanZero(invFourPi/math.Sqrt(r2)) * den[j]
		}
		out[i] += acc
	}
}

// EvalPair implements Batch: the AVX2 kernel (panel_amd64.s) takes the
// leading multiple of four a-targets where the build and the CPU have one,
// and laplacePairGo the rest — b's partial sums run on across the two in
// ascending a order, so they are the same either way, bit for bit.
//
//fmm:hotpath
func (Laplace) EvalPair(ax, ay, az, bx, by, bz, aden, bden, aout, bpart []float64) {
	clear(bpart)
	laplacePairGo(ax, ay, az, bx, by, bz, aden, bden, aout, bpart,
		laplacePairVec(ax, ay, az, bx, by, bz, aden, bden, aout, bpart))
}

// laplacePairGo is the Go loop of EvalPair over a-targets i ≥ start (tail,
// portable path and, from start 0 on a zeroed bpart, the oracle the vector
// kernel is tested against). Each kernel value k = nanZero(c/√r²) feeds
// a_i's partial sum k·bden_j, exactly as laplacePanelGo does, and b_j's
// running sum in bpart k·aden_i — r² is the same from either side, since
// the b side's differences are the negations of these. a-targets are
// blocked four wide as in laplacePanelGo; b_j's sum takes the four terms in
// ascending i.
//
//fmm:hotpath
func laplacePairGo(ax, ay, az, bx, by, bz, aden, bden, aout, bpart []float64, start int) {
	nb := len(bx)
	by, bz, bden, bpart = by[:nb], bz[:nb], bden[:nb], bpart[:nb]
	na := len(ax)
	ay, az, aden, aout = ay[:na], az[:na], aden[:na], aout[:na]
	i := start
	for ; i+3 < na; i += 4 {
		x0, y0, z0, e0 := ax[i], ay[i], az[i], aden[i]
		x1, y1, z1, e1 := ax[i+1], ay[i+1], az[i+1], aden[i+1]
		x2, y2, z2, e2 := ax[i+2], ay[i+2], az[i+2], aden[i+2]
		x3, y3, z3, e3 := ax[i+3], ay[i+3], az[i+3], aden[i+3]
		var a0, a1, a2, a3 float64
		for j := range bx {
			xs, ys, zs, d := bx[j], by[j], bz[j], bden[j]
			dx0, dy0, dz0 := x0-xs, y0-ys, z0-zs
			dx1, dy1, dz1 := x1-xs, y1-ys, z1-zs
			dx2, dy2, dz2 := x2-xs, y2-ys, z2-zs
			dx3, dy3, dz3 := x3-xs, y3-ys, z3-zs
			k0 := nanZero(invFourPi / math.Sqrt(dx0*dx0+dy0*dy0+dz0*dz0))
			k1 := nanZero(invFourPi / math.Sqrt(dx1*dx1+dy1*dy1+dz1*dz1))
			k2 := nanZero(invFourPi / math.Sqrt(dx2*dx2+dy2*dy2+dz2*dz2))
			k3 := nanZero(invFourPi / math.Sqrt(dx3*dx3+dy3*dy3+dz3*dz3))
			a0 += k0 * d
			a1 += k1 * d
			a2 += k2 * d
			a3 += k3 * d
			bpart[j] = bpart[j] + k0*e0 + k1*e1 + k2*e2 + k3*e3
		}
		aout[i] += a0
		aout[i+1] += a1
		aout[i+2] += a2
		aout[i+3] += a3
	}
	for ; i < na; i++ {
		x, y, z, e := ax[i], ay[i], az[i], aden[i]
		var acc float64
		for j := range bx {
			dx := x - bx[j]
			dy := y - by[j]
			dz := z - bz[j]
			k := nanZero(invFourPi / math.Sqrt(dx*dx+dy*dy+dz*dz))
			acc += k * bden[j]
			bpart[j] += k * e
		}
		aout[i] += acc
	}
}

// EvalPanel implements Batch the way Laplace does: the AVX2 kernel over the
// leading multiple of four targets, stokesPanelGo over the rest.
//
//fmm:hotpath
func (Stokes) EvalPanel(tx, ty, tz, sx, sy, sz []float64, den, out []float64, _ int) {
	stokesPanelGo(tx, ty, tz, sx, sy, sz, den, out, stokesPanelVec(tx, ty, tz, sx, sy, sz, den, out))
}

// stokesPanelGo is the Go loop over targets i ≥ start (tail, portable path
// and oracle, as laplacePanelGo). The per-pair arithmetic matches Eval term
// for term (same operation order), so non-singular pairs are bit-identical to
// the pairwise path. Targets are blocked in pairs — the three-component
// Stokeslet already carries six live accumulators per pair, so wider
// blocking would spill registers.
//
//fmm:hotpath
func stokesPanelGo(tx, ty, tz, sx, sy, sz, den, out []float64, start int) {
	ns := len(sx)
	sy, sz, den = sy[:ns], sz[:ns], den[:3*ns]
	nt := len(tx)
	ty, tz, out = ty[:nt], tz[:nt], out[:3*nt]
	i := start
	for ; i+1 < nt; i += 2 {
		x0, y0, z0 := tx[i], ty[i], tz[i]
		x1, y1, z1 := tx[i+1], ty[i+1], tz[i+1]
		var a0, a1, a2, b0, b1, b2 float64
		for j := range sx {
			xs, ys, zs := sx[j], sy[j], sz[j]
			d0, d1, d2 := den[3*j], den[3*j+1], den[3*j+2]
			dx0, dy0, dz0 := x0-xs, y0-ys, z0-zs
			dx1, dy1, dz1 := x1-xs, y1-ys, z1-zs
			r20 := dx0*dx0 + dy0*dy0 + dz0*dz0
			r21 := dx1*dx1 + dy1*dy1 + dz1*dz1
			invR0 := nanZero(1 / math.Sqrt(r20))
			invR1 := nanZero(1 / math.Sqrt(r21))
			invR30 := nanZero(invR0 / r20)
			invR31 := nanZero(invR1 / r21)
			dot0 := dx0*d0 + dy0*d1 + dz0*d2
			dot1 := dx1*d0 + dy1*d1 + dz1*d2
			a0 += invEightPi * (d0*invR0 + dx0*dot0*invR30)
			a1 += invEightPi * (d1*invR0 + dy0*dot0*invR30)
			a2 += invEightPi * (d2*invR0 + dz0*dot0*invR30)
			b0 += invEightPi * (d0*invR1 + dx1*dot1*invR31)
			b1 += invEightPi * (d1*invR1 + dy1*dot1*invR31)
			b2 += invEightPi * (d2*invR1 + dz1*dot1*invR31)
		}
		out[3*i] += a0
		out[3*i+1] += a1
		out[3*i+2] += a2
		out[3*i+3] += b0
		out[3*i+4] += b1
		out[3*i+5] += b2
	}
	for ; i < nt; i++ {
		x, y, z := tx[i], ty[i], tz[i]
		var a0, a1, a2 float64
		for j := range sx {
			dx := x - sx[j]
			dy := y - sy[j]
			dz := z - sz[j]
			r2 := dx*dx + dy*dy + dz*dz
			invR := nanZero(1 / math.Sqrt(r2))
			invR3 := nanZero(invR / r2)
			d0, d1, d2 := den[3*j], den[3*j+1], den[3*j+2]
			dot := dx*d0 + dy*d1 + dz*d2
			a0 += invEightPi * (d0*invR + dx*dot*invR3)
			a1 += invEightPi * (d1*invR + dy*dot*invR3)
			a2 += invEightPi * (d2*invR + dz*dot*invR3)
		}
		out[3*i] += a0
		out[3*i+1] += a1
		out[3*i+2] += a2
	}
}

// EvalPair implements Batch with the two EvalPanel calls it is defined by,
// as genericBatch does. Stokes has no pair body: the b side's three sums
// cost about as many FP-port cycles as the a side's divides save, and no
// form tried was fast enough to pay for its code (DESIGN.md §7.3).
//
//fmm:hotpath
func (s Stokes) EvalPair(ax, ay, az, bx, by, bz, aden, bden, aout, bpart []float64) {
	s.EvalPanel(ax, ay, az, bx, by, bz, bden, aout, -1)
	clear(bpart)
	s.EvalPanel(bx, by, bz, ax, ay, az, aden, bpart, -1)
}

// EvalPanel implements Batch. Four-wide target blocking: the exp call per
// pair dominates, and four independent chains let the sqrt/divide work of
// the neighbouring lanes proceed under its latency.
//
//fmm:hotpath
func (y Yukawa) EvalPanel(tx, ty, tz, sx, sy, sz []float64, den, out []float64, _ int) {
	lam := y.Lambda
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
		var a0, a1, a2, a3 float64
		for j := range sx {
			xs, ys, zs, d := sx[j], sy[j], sz[j], den[j]
			dx0, dy0, dz0 := x0-xs, y0-ys, z0-zs
			dx1, dy1, dz1 := x1-xs, y1-ys, z1-zs
			dx2, dy2, dz2 := x2-xs, y2-ys, z2-zs
			dx3, dy3, dz3 := x3-xs, y3-ys, z3-zs
			r0 := math.Sqrt(dx0*dx0 + dy0*dy0 + dz0*dz0)
			r1 := math.Sqrt(dx1*dx1 + dy1*dy1 + dz1*dz1)
			r2 := math.Sqrt(dx2*dx2 + dy2*dy2 + dz2*dz2)
			r3 := math.Sqrt(dx3*dx3 + dy3*dy3 + dz3*dz3)
			a0 += nanZero(invFourPi*math.Exp(-lam*r0)/r0) * d
			a1 += nanZero(invFourPi*math.Exp(-lam*r1)/r1) * d
			a2 += nanZero(invFourPi*math.Exp(-lam*r2)/r2) * d
			a3 += nanZero(invFourPi*math.Exp(-lam*r3)/r3) * d
		}
		out[i] += a0
		out[i+1] += a1
		out[i+2] += a2
		out[i+3] += a3
	}
	for ; i < nt; i++ {
		px, py, pz := tx[i], ty[i], tz[i]
		var acc float64
		for j := range sx {
			dx := px - sx[j]
			dy := py - sy[j]
			dz := pz - sz[j]
			r := math.Sqrt(dx*dx + dy*dy + dz*dz)
			acc += nanZero(invFourPi*math.Exp(-lam*r)/r) * den[j]
		}
		out[i] += acc
	}
}

// EvalPair implements Batch: one math.Exp per pair serves both directions.
// a-targets are blocked four wide as in EvalPanel, and b_j's sum takes the
// four terms in ascending i.
//
//fmm:hotpath
func (y Yukawa) EvalPair(ax, ay, az, bx, by, bz, aden, bden, aout, bpart []float64) {
	lam := y.Lambda
	clear(bpart)
	nb := len(bx)
	by, bz, bden, bpart = by[:nb], bz[:nb], bden[:nb], bpart[:nb]
	na := len(ax)
	ay, az, aden, aout = ay[:na], az[:na], aden[:na], aout[:na]
	i := 0
	for ; i+3 < na; i += 4 {
		x0, y0, z0, e0 := ax[i], ay[i], az[i], aden[i]
		x1, y1, z1, e1 := ax[i+1], ay[i+1], az[i+1], aden[i+1]
		x2, y2, z2, e2 := ax[i+2], ay[i+2], az[i+2], aden[i+2]
		x3, y3, z3, e3 := ax[i+3], ay[i+3], az[i+3], aden[i+3]
		var a0, a1, a2, a3 float64
		for j := range bx {
			xs, ys, zs, d := bx[j], by[j], bz[j], bden[j]
			dx0, dy0, dz0 := x0-xs, y0-ys, z0-zs
			dx1, dy1, dz1 := x1-xs, y1-ys, z1-zs
			dx2, dy2, dz2 := x2-xs, y2-ys, z2-zs
			dx3, dy3, dz3 := x3-xs, y3-ys, z3-zs
			r0 := math.Sqrt(dx0*dx0 + dy0*dy0 + dz0*dz0)
			r1 := math.Sqrt(dx1*dx1 + dy1*dy1 + dz1*dz1)
			r2 := math.Sqrt(dx2*dx2 + dy2*dy2 + dz2*dz2)
			r3 := math.Sqrt(dx3*dx3 + dy3*dy3 + dz3*dz3)
			k0 := nanZero(invFourPi * math.Exp(-lam*r0) / r0)
			k1 := nanZero(invFourPi * math.Exp(-lam*r1) / r1)
			k2 := nanZero(invFourPi * math.Exp(-lam*r2) / r2)
			k3 := nanZero(invFourPi * math.Exp(-lam*r3) / r3)
			a0 += k0 * d
			a1 += k1 * d
			a2 += k2 * d
			a3 += k3 * d
			bpart[j] = bpart[j] + k0*e0 + k1*e1 + k2*e2 + k3*e3
		}
		aout[i] += a0
		aout[i+1] += a1
		aout[i+2] += a2
		aout[i+3] += a3
	}
	for ; i < na; i++ {
		px, py, pz, e := ax[i], ay[i], az[i], aden[i]
		var acc float64
		for j := range bx {
			dx := px - bx[j]
			dy := py - by[j]
			dz := pz - bz[j]
			r := math.Sqrt(dx*dx + dy*dy + dz*dz)
			k := nanZero(invFourPi * math.Exp(-lam*r) / r)
			acc += k * bden[j]
			bpart[j] += k * e
		}
		aout[i] += acc
	}
}
