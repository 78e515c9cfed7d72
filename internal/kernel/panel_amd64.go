//go:build !purego

package kernel

import (
	"math"

	"kifmm/internal/linalg"
)

// UseAVX2 is linalg.UseAVX2, the AVX2 flag of the module's CPU probe (one
// probe, two flags), which this package's panel kernels read.
var UseAVX2 = linalg.UseAVX2

// yukawaAVX2 gates the Yukawa vector bodies, whose four-lane exp is
// math.Exp's FMA path (exp_amd64.go): on where the CPU has AVX2 and math.Exp
// is seen to take that path, so a vector body and the Go loops around
// math.Exp that finish its panels can never disagree. Where
// GODEBUG=cpu.fma=off (or a CPU without FMA) sends math.Exp down its unfused
// path, the Go loops do all the work.
var yukawaAVX2 = UseAVX2 && expFMAMatches()

// panelConsts holds what panel_amd64.s reads as 32-byte operands: four ones,
// four 1/4π, four 1/8π — the Go constants themselves, so the vector kernels
// cannot round them differently from the Go loops.
var panelConsts = [12]float64{
	1, 1, 1, 1,
	invFourPi, invFourPi, invFourPi, invFourPi,
	invEightPi, invEightPi, invEightPi, invEightPi,
}

// expConsts holds the four-lane exp's 32-byte operands (offsets in the
// comments, which panel_amd64.s uses): math.Exp's reduction constants, its
// Taylor coefficients, 2, the overflow threshold and +Inf, each four times —
// the Go constants exp_amd64.go's emulation of math.Exp rounds with.
var expConsts = [4 * 15]float64{
	expLog2e, expLog2e, expLog2e, expLog2e, // 0
	expLn2U, expLn2U, expLn2U, expLn2U, // 32
	expLn2L, expLn2L, expLn2L, expLn2L, // 64
	0.0625, 0.0625, 0.0625, 0.0625, // 96
	expTaylor[0], expTaylor[0], expTaylor[0], expTaylor[0], // 128: 1/8!
	expTaylor[1], expTaylor[1], expTaylor[1], expTaylor[1], // 160
	expTaylor[2], expTaylor[2], expTaylor[2], expTaylor[2], // 192
	expTaylor[3], expTaylor[3], expTaylor[3], expTaylor[3], // 224
	expTaylor[4], expTaylor[4], expTaylor[4], expTaylor[4], // 256
	expTaylor[5], expTaylor[5], expTaylor[5], expTaylor[5], // 288: 1/3!
	expTaylor[6], expTaylor[6], expTaylor[6], expTaylor[6], // 320: 1/2
	expTaylor[7], expTaylor[7], expTaylor[7], expTaylor[7], // 352: 1
	2, 2, 2, 2, // 384
	expOverflow, expOverflow, expOverflow, expOverflow, // 416
	math.Inf(1), math.Inf(1), math.Inf(1), math.Inf(1), // 448
}

// expBias holds the exp's 16-byte exponent operands, four int32 lanes each:
// the bias 0x3FF (0), 0x3FE (16), 1 (32), −52 (48) and 0x7FE (64).
var expBias = [4 * 5]int32{
	0x3FF, 0x3FF, 0x3FF, 0x3FF,
	0x3FE, 0x3FE, 0x3FE, 0x3FE,
	1, 1, 1, 1,
	-52, -52, -52, -52,
	0x7FE, 0x7FE, 0x7FE, 0x7FE,
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

// expAVX2, yukawaPanelAVX2 and yukawaPairAVX2 are implemented in
// panel_amd64.s; nlam is −λ. expAVX2 runs the Yukawa kernels' exp alone, for
// TestExpLanes.
//
//go:noescape
func expAVX2(x, y *float64, n int)

//go:noescape
func yukawaPanelAVX2(tx, ty, tz, sx, sy, sz, den, out *float64, nt, ns int, nlam float64)

//go:noescape
func yukawaPairAVX2(ax, ay, az, bx, by, bz, aden, bden, aout, bpart *float64, na, nb int, nlam float64)

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

// yukawaPanelVec is laplacePanelVec for the Yukawa kernel, where yukawaAVX2
// holds, except that it covers every target: the last one to three go
// through the vector kernel as one group padded with copies of the last
// target, whose lanes are computed and dropped (lanes are independent). A
// Go loop target costs as much as about six vector ones, a scalar
// math.Exp each.
//
//fmm:hotpath
func yukawaPanelVec(lam float64, tx, ty, tz, sx, sy, sz, den, out []float64) int {
	nt, ns := len(tx), len(sx)
	if !yukawaAVX2 || nt == 0 || ns == 0 {
		return 0
	}
	ty, tz, out = ty[:nt], tz[:nt], out[:nt]
	sy, sz, den = sy[:ns], sz[:ns], den[:ns]
	n4 := nt &^ 3
	if n4 > 0 {
		yukawaPanelAVX2(&tx[0], &ty[0], &tz[0], &sx[0], &sy[0], &sz[0], &den[0], &out[0], n4, ns, -lam)
	}
	if n4 < nt {
		var x, y, z, o [4]float64
		for l := range 4 {
			i := min(n4+l, nt-1)
			x[l], y[l], z[l] = tx[i], ty[i], tz[i]
		}
		copy(o[:], out[n4:])
		yukawaPanelAVX2(&x[0], &y[0], &z[0], &sx[0], &sy[0], &sz[0], &den[0], &o[0], 4, ns, -lam)
		copy(out[n4:], o[:])
	}
	return nt
}

// yukawaPairVec is laplacePairVec for the Yukawa kernel, covering every
// a-target as yukawaPanelVec does. The padding lanes carry density +0: their
// term for b_j is k·(+0) = +0 (k is finite, nanZero sees to that), and a
// running sum that starts from +0 is never −0, so adding it changes nothing.
//
//fmm:hotpath
func yukawaPairVec(lam float64, ax, ay, az, bx, by, bz, aden, bden, aout, bpart []float64) int {
	na, nb := len(ax), len(bx)
	if !yukawaAVX2 || na == 0 || nb == 0 {
		return 0
	}
	ay, az, aden, aout = ay[:na], az[:na], aden[:na], aout[:na]
	by, bz, bden, bpart = by[:nb], bz[:nb], bden[:nb], bpart[:nb]
	n4 := na &^ 3
	if n4 > 0 {
		yukawaPairAVX2(&ax[0], &ay[0], &az[0], &bx[0], &by[0], &bz[0], &aden[0], &bden[0], &aout[0], &bpart[0], n4, nb, -lam)
	}
	if n4 < na {
		var x, y, z, d, o [4]float64
		for l := range 4 {
			i := min(n4+l, na-1)
			x[l], y[l], z[l] = ax[i], ay[i], az[i]
		}
		copy(d[:], aden[n4:])
		copy(o[:], aout[n4:])
		yukawaPairAVX2(&x[0], &y[0], &z[0], &bx[0], &by[0], &bz[0], &d[0], &bden[0], &o[0], &bpart[0], 4, nb, -lam)
		copy(aout[n4:], o[:])
	}
	return na
}
