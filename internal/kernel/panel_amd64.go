//go:build !purego

package kernel

import "kifmm/internal/linalg"

// UseAVX2 is linalg.UseAVX2, the AVX2 flag of the module's CPU probe (one
// probe, two flags), which this package's panel kernels read.
var UseAVX2 = linalg.UseAVX2

// panelConsts holds what panel_amd64.s reads as 32-byte operands: four ones,
// four 1/4π, four 1/8π — the Go constants themselves, so the vector kernels
// cannot round them differently from the Go loops.
var panelConsts = [12]float64{
	1, 1, 1, 1,
	invFourPi, invFourPi, invFourPi, invFourPi,
	invEightPi, invEightPi, invEightPi, invEightPi,
}

// laplacePanelAVX2, stokesGroupAVX2 and laplacePairAVX2 are implemented in
// panel_amd64.s.
//
//go:noescape
func laplacePanelAVX2(tx, ty, tz, sx, sy, sz, den, out *float64, nt, ns int)

//go:noescape
func stokesGroupAVX2(tx, ty, tz, sx, sy, sz, den *float64, ns int, acc *[12]float64)

//go:noescape
func laplacePairAVX2(ax, ay, az, bx, by, bz, aden, bden, aout, bpart *float64, na, nb int)

// laplacePanelVec runs the vector kernel over the leading multiple of four
// targets and returns how many it covered; the caller's Go loop finishes the
// tail (or everything, on a CPU without AVX2). An empty source panel is left
// to the Go loop too, whose `out[i] += 0` the contract includes.
//
//fmm:hotpath
func laplacePanelVec(tx, ty, tz, sx, sy, sz, den, out []float64) int {
	nt, ns := len(tx)&^3, len(sx)
	if !UseAVX2 || nt == 0 || ns == 0 {
		return 0
	}
	// The kernel reads and writes exactly these lengths.
	ty, tz, out = ty[:nt], tz[:nt], out[:nt]
	sy, sz, den = sy[:ns], sz[:ns], den[:ns]
	laplacePanelAVX2(&tx[0], &ty[0], &tz[0], &sx[0], &sy[0], &sz[0], &den[0], &out[0], nt, ns)
	return nt
}

// stokesPanelVec is laplacePanelVec for the Stokeslet: the kernel returns a
// group's twelve partial sums component-major (SoA across the four lanes) in
// a stack scratch, and the interleaved add into out happens here.
//
//fmm:hotpath
func stokesPanelVec(tx, ty, tz, sx, sy, sz, den, out []float64) int {
	nt, ns := len(tx)&^3, len(sx)
	if !UseAVX2 || nt == 0 || ns == 0 {
		return 0
	}
	ty, tz, out = ty[:nt], tz[:nt], out[:3*nt]
	sy, sz, den = sy[:ns], sz[:ns], den[:3*ns]
	var acc [12]float64
	for i := 0; i < nt; i += 4 {
		stokesGroupAVX2(&tx[i], &ty[i], &tz[i], &sx[0], &sy[0], &sz[0], &den[0], ns, &acc)
		o := out[3*i : 3*i+12]
		for l := 0; l < 4; l++ {
			o[3*l] += acc[l]
			o[3*l+1] += acc[4+l]
			o[3*l+2] += acc[8+l]
		}
	}
	return nt
}

// laplacePairVec is laplacePanelVec for EvalPair: the vector kernel over the
// leading multiple of four a-targets, adding to bpart (which the caller
// zeroed) in ascending a order; it returns how many a-targets it covered.
//
//fmm:hotpath
func laplacePairVec(ax, ay, az, bx, by, bz, aden, bden, aout, bpart []float64) int {
	na, nb := len(ax)&^3, len(bx)
	if !UseAVX2 || na == 0 || nb == 0 {
		return 0
	}
	ay, az, aden, aout = ay[:na], az[:na], aden[:na], aout[:na]
	by, bz, bden, bpart = by[:nb], bz[:nb], bden[:nb], bpart[:nb]
	laplacePairAVX2(&ax[0], &ay[0], &az[0], &bx[0], &by[0], &bz[0], &aden[0], &bden[0], &aout[0], &bpart[0], na, nb)
	return na
}
