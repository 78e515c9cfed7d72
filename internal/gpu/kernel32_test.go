package gpu

import (
	"math"
	"math/rand"
	"testing"

	"kifmm/internal/geom"
	"kifmm/internal/kernel"
)

// TestMax32 pins the IEEE maxNum contract of the branch-free max32,
// including the NaN-discarding and signed-zero cases the bit tricks exist
// for.
func TestMax32(t *testing.T) {
	nan := float32(math.NaN())
	negZero := float32(math.Copysign(0, -1))
	inf := float32(math.Inf(1))
	cases := []struct {
		a, b, want float32
	}{
		{1, 2, 2},
		{2, 1, 2},
		{-3, -5, -3},
		{-1, 1, 1},
		{nan, 7, 7},     // max(NaN, x) = x — the Algorithm 4 identity
		{7, nan, 7},     // symmetric
		{nan, 0, 0},     // the guard's exact use: squash NaN against 0
		{nan, -2, -2},   // NaN discarded even against a negative
		{0, negZero, 0}, // IEEE maxNum: +0 beats −0
		{negZero, 0, 0}, // either operand order
		{inf, 5, inf},
		{-5, inf, inf},
		{float32(math.Inf(-1)), -9, -9},
	}
	for _, c := range cases {
		got := max32(c.a, c.b)
		if math.Float32bits(got) != math.Float32bits(c.want) {
			t.Errorf("max32(%v, %v) = %v (bits %#x), want %v (bits %#x)",
				c.a, c.b, got, math.Float32bits(got), c.want, math.Float32bits(c.want))
		}
	}
	// Signed-zero bit patterns, checked explicitly.
	if bits := math.Float32bits(max32(0, negZero)); bits != 0 {
		t.Errorf("max32(+0, -0) bits = %#x, want +0", bits)
	}
	if bits := math.Float32bits(max32(negZero, 0)); bits != 0 {
		t.Errorf("max32(-0, +0) bits = %#x, want +0", bits)
	}
	if bits := math.Float32bits(max32(negZero, negZero)); bits != 0x80000000 {
		t.Errorf("max32(-0, -0) bits = %#x, want -0", bits)
	}
	// Both NaN: result must be NaN.
	if got := max32(nan, nan); !math.IsNaN(float64(got)) {
		t.Errorf("max32(NaN, NaN) = %v, want NaN", got)
	}
}

// TestLaplaceEval32SelfPair keeps the scalar device kernel's guard honest
// now that max32 is branch-free.
func TestLaplaceEval32SelfPair(t *testing.T) {
	if got := laplaceEval32(0.5, 0.5, 0.5, 0.5, 0.5, 0.5, 3); got != 0 {
		t.Fatalf("coincident pair contributed %v, want 0", got)
	}
	got := laplaceEval32(1, 0, 0, 0, 0, 0, 4)
	want := float32(invFourPi) * 4
	if math.Abs(float64(got-want)) > 1e-6 {
		t.Fatalf("unit pair = %v, want %v", got, want)
	}
}

func TestLaplaceEval32MatchesFloat64(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	k := kernel.Laplace{}
	for i := 0; i < 100; i++ {
		tp := geom.Point{X: rng.Float64(), Y: rng.Float64(), Z: rng.Float64()}
		sp := geom.Point{X: rng.Float64(), Y: rng.Float64(), Z: rng.Float64()}
		d := rng.NormFloat64()
		out := []float64{0}
		k.Eval(tp, sp, []float64{d}, out)
		got := laplaceEval32(float32(tp.X), float32(tp.Y), float32(tp.Z),
			float32(sp.X), float32(sp.Y), float32(sp.Z), float32(d))
		if math.Abs(float64(got)-out[0]) > 2e-5*(1+math.Abs(out[0])) {
			t.Fatalf("float32 kernel off: %v vs %v", got, out[0])
		}
	}
}

func TestLaplaceEval32NaNMaxTrick(t *testing.T) {
	// Coincident points must contribute exactly zero (no NaN, no Inf),
	// for positive and negative densities alike.
	for _, d := range []float32{1, -1, 0.5, -2.5, 0} {
		got := laplaceEval32(0.25, 0.5, 0.75, 0.25, 0.5, 0.75, d)
		if got != 0 {
			t.Fatalf("self-interaction leak: density %v -> %v", d, got)
		}
	}
}
