package kifmm

import (
	"math"
	"testing"
)

// The Yukawa kernel exercises the per-level (non-scale-invariant) operator
// machinery end to end.

func TestYukawaEvaluateMatchesDirect(t *testing.T) {
	f, err := New(Options{Kernel: Yukawa, YukawaLambda: 5, PointsPerBox: 30, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	pts, den := randInput(800, 1, 21)
	got, err := f.Evaluate(pts, den)
	if err != nil {
		t.Fatal(err)
	}
	want, err := f.Direct(pts, den)
	if err != nil {
		t.Fatal(err)
	}
	if e := relErr(got, want); e > 5e-5 {
		t.Fatalf("yukawa rel err %g", e)
	}
}

func TestYukawaDenseAndFFTAgree(t *testing.T) {
	pts, den := randInput(600, 1, 22)
	var results [2][]float64
	for i, dense := range []bool{false, true} {
		f, err := New(Options{Kernel: Yukawa, YukawaLambda: 8, PointsPerBox: 25,
			denseM2L: dense, Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		out, err := f.Evaluate(pts, den)
		if err != nil {
			t.Fatal(err)
		}
		results[i] = out
	}
	if e := relErr(results[0], results[1]); e > 1e-10 {
		t.Fatalf("yukawa FFT vs dense M2L differ by %g", e)
	}
}

func TestYukawaDistributed(t *testing.T) {
	f, err := New(Options{Kernel: Yukawa, YukawaLambda: 3, PointsPerBox: 25, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	pts, den := randInput(800, 1, 23)
	got, err := f.EvaluateDistributed(4, pts, den)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := f.Direct(pts, den)
	if e := relErr(got, want); e > 5e-5 {
		t.Fatalf("distributed yukawa rel err %g", e)
	}
}

func TestYukawaScreeningDecay(t *testing.T) {
	// Physics: larger λ screens the interaction — far-away pairs contribute
	// exponentially less than under Laplace.
	pts := []Point{{X: 0.1, Y: 0.5, Z: 0.5}, {X: 0.9, Y: 0.5, Z: 0.5}}
	den := []float64{1, 0}
	weak, _ := New(Options{Kernel: Yukawa, YukawaLambda: 1, PointsPerBox: 4, MaxDepth: 4})
	strong, _ := New(Options{Kernel: Yukawa, YukawaLambda: 20, PointsPerBox: 4, MaxDepth: 4})
	w, err := weak.Evaluate(pts, den)
	if err != nil {
		t.Fatal(err)
	}
	s, err := strong.Evaluate(pts, den)
	if err != nil {
		t.Fatal(err)
	}
	if !(math.Abs(s[1]) < math.Abs(w[1])/100) {
		t.Fatalf("screening not decaying: λ=1 gives %g, λ=20 gives %g", w[1], s[1])
	}
}

func TestYukawaRejectsNegativeLambda(t *testing.T) {
	if _, err := New(Options{Kernel: Yukawa, YukawaLambda: -1}); err == nil {
		t.Fatalf("negative screening accepted")
	}
}
