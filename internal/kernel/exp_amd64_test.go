package kernel

import (
	"math"
	"math/rand"
	"testing"
)

// expUnfused is math.Exp's amd64 path without FMA: expFMA's sequence with
// every product rounded on its own (the conversions forbid fusing).
func expUnfused(x float64) float64 {
	k := math.RoundToEven(expLog2e * x)
	r := x - float64(k*expLn2U)
	r -= float64(k * expLn2L)
	r *= 0.0625
	p := expTaylor[0]
	for _, c := range expTaylor[1:] {
		p = float64(p*r) + c
	}
	r *= p
	for range 4 {
		r *= r + 2
	}
	r++
	return r * math.Float64frombits(uint64(int64(k)+1023)<<52)
}

// TestExpProbeDecides pins the probe that gates the Yukawa vector bodies:
// every probe argument separates math.Exp's fused path from its unfused one,
// math.Exp takes one of the two here, and the gate is on exactly where the
// CPU has AVX2 and math.Exp takes the fused path. Run under
// GODEBUG=cpu.fma=off (make portable) it sees the unfused path and the gate
// off.
func TestExpProbeDecides(t *testing.T) {
	fused := true
	for _, x := range expProbe {
		f, u, e := math.Float64bits(expFMA(x)), math.Float64bits(expUnfused(x)), math.Float64bits(math.Exp(x))
		if f == u {
			t.Errorf("exp(%v): fused and unfused paths both give %#x; the probe cannot tell them apart", x, f)
		}
		if e != f && e != u {
			t.Errorf("math.Exp(%v) = %#x, neither the fused path's %#x nor the unfused one's %#x", x, e, f, u)
		}
		fused = fused && e == f
	}
	if fused != expFMAMatches() {
		t.Errorf("expFMAMatches() = %v, probe arguments say %v", expFMAMatches(), fused)
	}
	if want := UseAVX2 && fused; yukawaAVX2 != want {
		t.Errorf("yukawaAVX2 = %v, want %v (UseAVX2 %v, math.Exp fused %v)", yukawaAVX2, want, UseAVX2, fused)
	}
	// The emulation that decides is math.Exp's path on its whole normal range.
	rng := rand.New(rand.NewSource(3))
	want := expUnfused
	if fused {
		want = expFMA
	}
	for range 100000 {
		x := -708 + 1417*rng.Float64()
		if g, w := math.Exp(x), want(x); math.Float64bits(g) != math.Float64bits(w) {
			t.Fatalf("math.Exp(%v) = %#x, emulation (fused %v) %#x", x, math.Float64bits(g), fused, math.Float64bits(w))
		}
	}
}
