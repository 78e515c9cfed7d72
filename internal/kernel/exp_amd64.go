package kernel

import "math"

// The Yukawa vector bodies (panel_amd64.s) carry their own four-lane exp: a
// port of the FMA path of math.Exp's amd64 assembly, rounding step for step
// where it rounds. math.Exp takes that path only where the CPU has AVX and
// FMA and GODEBUG has not turned FMA off (cpu.fma=off); otherwise it rounds
// every product and sum on its own and its bits differ in the last place on
// about one argument in ten. The vector bodies are therefore enabled only
// where math.Exp is seen to take the fused path: expFMAMatches compares it on
// expProbe against expFMA, the same sequence written with math.FMA.

// math.Exp's reduction and Taylor constants, as written in
// $GOROOT/src/math/exp_amd64.s.
const (
	expLog2e    = 1.4426950408889634073599246810018920
	expLn2U     = 0.69314718055966295651160180568695068359375
	expLn2L     = 0.28235290563031577122588448175013436025525412068e-12
	expOverflow = 7.09782712893384e+02
)

// expTaylor are the Taylor coefficients of e^r − 1 in the order the
// polynomial is evaluated: 1/8!, 1/7!, …, 1/3!, 1/2, 1.
var expTaylor = [8]float64{
	2.4801587301587301587e-5,
	1.9841269841269841270e-4,
	1.3888888888888888889e-3,
	8.3333333333333333333e-3,
	4.1666666666666666667e-2,
	1.6666666666666666667e-1,
	0.5,
	1.0,
}

// expProbe are arguments on which the fused and the unfused path of
// math.Exp round differently (TestExpProbeDecides keeps them so).
var expProbe = [...]float64{-0.079, -0.082, -0.14, -0.2}

// expFMA is math.Exp's FMA path on its normal range — x finite, at most
// expOverflow, and a result that is a normal number: Shibata's range
// reduction x − k·ln2 with the split ln2 in two fused steps, a degree-8
// Taylor polynomial of e^(r/16) − 1 by fused multiply-adds, four squarings
// (y+2)·y back to e^r − 1, the last fused with the +1, and the scale by 2^k.
func expFMA(x float64) float64 {
	k := math.RoundToEven(expLog2e * x)
	r := math.FMA(-k, expLn2U, x)
	r = math.FMA(-k, expLn2L, r)
	r *= 0.0625
	p := expTaylor[0]
	for _, c := range expTaylor[1:] {
		p = math.FMA(p, r, c)
	}
	r *= p
	r *= r + 2
	r *= r + 2
	r *= r + 2
	r = math.FMA(r+2, r, 1)
	return r * math.Float64frombits(uint64(int64(k)+1023)<<52)
}

// expFMAMatches reports whether math.Exp, in this process, returns expFMA's
// bits on every probe argument: whether it takes its fused path.
func expFMAMatches() bool {
	for _, x := range expProbe {
		if math.Float64bits(math.Exp(x)) != math.Float64bits(expFMA(x)) {
			return false
		}
	}
	return true
}
