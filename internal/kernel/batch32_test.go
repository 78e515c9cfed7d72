package kernel

import (
	"math"
	"math/rand"
	"testing"
)

// randPanel32 draws n points in the unit cube as float32 SoA panels along
// with their exact float64 images (unit-interval float32 values round-trip
// to float64 exactly, so the two precisions see the same geometry).
func randPanel32(rng *rand.Rand, n int) (x32, y32, z32 []float32, x, y, z []float64) {
	x32 = make([]float32, n)
	y32 = make([]float32, n)
	z32 = make([]float32, n)
	x = make([]float64, n)
	y = make([]float64, n)
	z = make([]float64, n)
	for i := range x {
		x32[i] = float32(rng.Float64())
		y32[i] = float32(rng.Float64())
		z32[i] = float32(rng.Float64())
		x[i], y[i], z[i] = float64(x32[i]), float64(y32[i]), float64(z32[i])
	}
	return
}

// TestAsBatch32Native checks that every built-in kernel carries a native
// float32 panel form, and that a plain Kernel reports no capability instead
// of getting a fallback.
func TestAsBatch32Native(t *testing.T) {
	for _, k := range batchKernels() {
		if _, ok := AsBatch32(k); !ok {
			t.Errorf("%s: no Batch32 implementation", k.Name())
		}
	}
	if _, ok := AsBatch32(evalOnly{Laplace{}}); ok {
		t.Errorf("AsBatch32 of a plain Kernel should report ok=false")
	}
}

// TestEvalPanel32MatchesFloat64 is the core mixed-precision property: on
// identical geometry (float32 coordinates, seen exactly by both paths),
// EvalPanel32 agrees with the float64 EvalPanel oracle to a few float32
// ulps per pair — including panels with planted coincident pairs, every
// target-count tail (8/4/2/scalar), and regardless of the selfOffset hint.
func TestEvalPanel32MatchesFloat64(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, k := range batchKernels() {
		b := AsBatch(k)
		b32, ok := AsBatch32(k)
		if !ok {
			t.Fatalf("%s: no Batch32", k.Name())
		}
		sd, td := k.SrcDim(), k.TrgDim()
		for nt := 0; nt <= 19; nt++ {
			for _, ns := range []int{0, 1, 7, 33} {
				tx32, ty32, tz32, tx, ty, tz := randPanel32(rng, nt)
				sx32, sy32, sz32, sx, sy, sz := randPanel32(rng, ns)
				for c := 0; c < 3 && c < nt && c < ns; c++ {
					i, j := rng.Intn(nt), rng.Intn(ns)
					sx32[j], sy32[j], sz32[j] = tx32[i], ty32[i], tz32[i]
					sx[j], sy[j], sz[j] = tx[i], ty[i], tz[i]
				}
				den32 := make([]float32, ns*sd)
				den := make([]float64, ns*sd)
				for i := range den {
					den32[i] = float32(rng.NormFloat64())
					den[i] = float64(den32[i])
				}
				want := make([]float64, nt*td)
				b.EvalPanel(tx, ty, tz, sx, sy, sz, den, want, 0)
				got := make([]float64, nt*td)
				b32.EvalPanel32(tx32, ty32, tz32, sx32, sy32, sz32, den32, got, -1)
				var scale float64
				for _, w := range want {
					scale = math.Max(scale, math.Abs(w))
				}
				tol := 1e-5 * math.Max(scale, 1) * float64(ns+1)
				for i := range want {
					if d := math.Abs(got[i] - want[i]); d > tol {
						t.Fatalf("%s nt=%d ns=%d out[%d]: float32 %v vs float64 %v (|Δ|=%g > %g)",
							k.Name(), nt, ns, i, got[i], want[i], d, tol)
					}
				}
			}
		}
	}
}

// TestEvalPanel32SelfPanel checks the Algorithm 4 guard in float32: a panel
// evaluated against itself must silently drop the i==j singular pairs and
// agree with the float64 self-panel result.
func TestEvalPanel32SelfPanel(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for _, k := range batchKernels() {
		b := AsBatch(k)
		b32, _ := AsBatch32(k)
		sd, td := k.SrcDim(), k.TrgDim()
		const n = 23
		x32, y32, z32, x, y, z := randPanel32(rng, n)
		den32 := make([]float32, n*sd)
		den := make([]float64, n*sd)
		for i := range den {
			den32[i] = float32(rng.NormFloat64())
			den[i] = float64(den32[i])
		}
		want := make([]float64, n*td)
		b.EvalPanel(x, y, z, x, y, z, den, want, 0)
		got := make([]float64, n*td)
		b32.EvalPanel32(x32, y32, z32, x32, y32, z32, den32, got, 0)
		for i := range want {
			if d := math.Abs(got[i] - want[i]); d > 1e-4*(math.Abs(want[i])+1) {
				t.Fatalf("%s self-panel out[%d]: float32 %v vs float64 %v", k.Name(), i, got[i], want[i])
			}
			if math.IsNaN(got[i]) || math.IsInf(got[i], 0) {
				t.Fatalf("%s self-panel out[%d] = %v: singular pair leaked", k.Name(), i, got[i])
			}
		}
	}
}

// TestEvalPanel32Accumulates checks that EvalPanel32 adds into out rather
// than overwriting it.
func TestEvalPanel32Accumulates(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, k := range batchKernels() {
		b32, _ := AsBatch32(k)
		sd, td := k.SrcDim(), k.TrgDim()
		tx, ty, tz, _, _, _ := randPanel32(rng, 9)
		sx, sy, sz, _, _, _ := randPanel32(rng, 11)
		den := make([]float32, 11*sd)
		for i := range den {
			den[i] = float32(rng.NormFloat64())
		}
		once := make([]float64, 9*td)
		b32.EvalPanel32(tx, ty, tz, sx, sy, sz, den, once, -1)
		twice := make([]float64, 9*td)
		b32.EvalPanel32(tx, ty, tz, sx, sy, sz, den, twice, -1)
		b32.EvalPanel32(tx, ty, tz, sx, sy, sz, den, twice, -1)
		for i := range once {
			if d := math.Abs(twice[i] - 2*once[i]); d > 1e-12*math.Abs(once[i]) {
				t.Fatalf("%s: out[%d] after two calls %v, want 2×%v", k.Name(), i, twice[i], once[i])
			}
		}
	}
}
