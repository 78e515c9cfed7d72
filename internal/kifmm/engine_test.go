package kifmm

import (
	"math"
	"math/rand"
	"testing"

	"kifmm/internal/diag"
	"kifmm/internal/geom"
	"kifmm/internal/kernel"
	"kifmm/internal/morton"
	"kifmm/internal/octree"
)

func TestSurfaceGridCount(t *testing.T) {
	for _, p := range []int{2, 3, 4, 6, 8} {
		g := NewSurfaceGrid(p)
		want := p*p*p - (p-2)*(p-2)*(p-2)
		if g.NumPoints() != want {
			t.Fatalf("p=%d: %d surface points, want %d", p, g.NumPoints(), want)
		}
	}
}

func TestSurfacePointsOnCube(t *testing.T) {
	g := NewSurfaceGrid(4)
	c := geom.Point{X: 0.25, Y: 0.5, Z: 0.75}
	const r = 0.1
	for _, p := range g.Points(c, r) {
		d := p.Sub(c)
		m := math.Max(math.Abs(d.X), math.Max(math.Abs(d.Y), math.Abs(d.Z)))
		if math.Abs(m-r) > 1e-12 {
			t.Fatalf("surface point not on cube boundary: %v", p)
		}
	}
}

func TestChildCenterMatchesMortonConvention(t *testing.T) {
	// childCenter's offsets must agree with morton.Key.Child's bit packing.
	for c := 0; c < 8; c++ {
		cc := childCenter(geom.Point{X: 0.5, Y: 0.5, Z: 0.5}, 0.5, c)
		x, y, z := morton.Root().Child(c).Center()
		if math.Abs(cc.X-x) > 1e-12 || math.Abs(cc.Y-y) > 1e-12 || math.Abs(cc.Z-z) > 1e-12 {
			t.Fatalf("child %d center mismatch: ops (%v) vs morton (%v,%v,%v)", c, cc, x, y, z)
		}
	}
}

// relErr computes the relative L2 error between got and want.
func relErr(got, want []float64) float64 {
	var num, den float64
	for i := range got {
		d := got[i] - want[i]
		num += d * d
		den += want[i] * want[i]
	}
	if den == 0 {
		return math.Sqrt(num)
	}
	return math.Sqrt(num / den)
}

func randDensities(rng *rand.Rand, n, dim int) []float64 {
	out := make([]float64, n*dim)
	for i := range out {
		out[i] = rng.NormFloat64()
	}
	return out
}

// runFMM builds a tree and evaluates the FMM for the given configuration,
// returning (fmm potentials, direct potentials) in original point order.
func runFMM(t *testing.T, kern kernel.Kernel, dist geom.Distribution, n, q, p int, useFFT bool) ([]float64, []float64) {
	t.Helper()
	pts := geom.Generate(dist, n, 42)
	tr := octree.Build(pts, q, 20)
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	tr.BuildLists(nil)
	ops := NewOperators(kern, p, 1e-9)
	e := NewEngine(ops, tr)
	e.UseFFTM2L = useFFT
	e.Workers = 4
	rng := rand.New(rand.NewSource(7))
	den := randDensities(rng, n, kern.SrcDim())
	e.SetPointDensities(den)
	e.Evaluate()
	got := e.PointPotentials()
	want := kernel.Direct(kern, pts, pts, den)
	return got, want
}

func TestFMMLaplaceUniformAccuracy(t *testing.T) {
	got, want := runFMM(t, kernel.Laplace{}, geom.Uniform, 800, 30, 6, false)
	if err := relErr(got, want); err > 2e-5 {
		t.Fatalf("laplace uniform rel err %g too large", err)
	}
}

func TestFMMLaplaceNonuniformAccuracy(t *testing.T) {
	got, want := runFMM(t, kernel.Laplace{}, geom.Ellipsoid, 800, 20, 6, false)
	if err := relErr(got, want); err > 2e-5 {
		t.Fatalf("laplace ellipsoid rel err %g too large", err)
	}
}

func TestFMMStokesAccuracy(t *testing.T) {
	got, want := runFMM(t, kernel.Stokes{}, geom.Uniform, 400, 25, 4, false)
	if err := relErr(got, want); err > 5e-3 {
		t.Fatalf("stokes rel err %g too large", err)
	}
}

func TestFMMFFTM2LMatchesDense(t *testing.T) {
	gotFFT, want := runFMM(t, kernel.Laplace{}, geom.Uniform, 800, 30, 6, true)
	if err := relErr(gotFFT, want); err > 2e-5 {
		t.Fatalf("FFT M2L rel err vs direct %g too large", err)
	}
	gotDense, _ := runFMM(t, kernel.Laplace{}, geom.Uniform, 800, 30, 6, false)
	// The two translation paths compute the same linear operator; they may
	// differ only by FFT roundoff, amplified here by the downward solves
	// (the V-phase DChk differential in TestVListFFTMatchesDenseOracle is
	// held to 1e-12 before that amplification).
	if err := relErr(gotFFT, gotDense); err > 3e-10 {
		t.Fatalf("FFT vs dense M2L differ by %g", err)
	}
}

func TestFMMFFTM2LStokes(t *testing.T) {
	got, want := runFMM(t, kernel.Stokes{}, geom.Uniform, 300, 25, 4, true)
	if err := relErr(got, want); err > 5e-3 {
		t.Fatalf("stokes FFT M2L rel err %g", err)
	}
}

func TestFMMAccuracyImprovesWithOrder(t *testing.T) {
	var errs []float64
	for _, p := range []int{3, 4, 6} {
		got, want := runFMM(t, kernel.Laplace{}, geom.Uniform, 500, 20, p, false)
		errs = append(errs, relErr(got, want))
	}
	if !(errs[2] < errs[0]) {
		t.Fatalf("error did not improve with order: %v", errs)
	}
}

func TestFMMDeepNonuniformTree(t *testing.T) {
	// Small q forces multiple levels and nonempty W/X lists on the
	// ellipsoid distribution; this exercises every phase.
	got, want := runFMM(t, kernel.Laplace{}, geom.Ellipsoid, 1200, 8, 6, false)
	if err := relErr(got, want); err > 5e-5 {
		t.Fatalf("deep tree rel err %g", err)
	}
}

func TestEngineResetIdempotent(t *testing.T) {
	pts := geom.Generate(geom.Uniform, 300, 3)
	tr := octree.Build(pts, 20, 20)
	tr.BuildLists(nil)
	ops := NewOperators(kernel.Laplace{}, 4, 1e-9)
	e := NewEngine(ops, tr)
	rng := rand.New(rand.NewSource(5))
	den := randDensities(rng, 300, 1)
	e.SetPointDensities(den)
	e.Evaluate()
	first := e.PointPotentials()
	e.Reset()
	e.Evaluate()
	second := e.PointPotentials()
	for i := range first {
		if math.Abs(first[i]-second[i]) > 1e-13*(1+math.Abs(first[i])) {
			t.Fatalf("re-evaluation differs at %d: %v vs %v", i, first[i], second[i])
		}
	}
}

func TestEngineLinearity(t *testing.T) {
	// FMM is linear in the densities: F(a·s1 + s2) = a·F(s1) + F(s2).
	pts := geom.Generate(geom.Uniform, 250, 9)
	tr := octree.Build(pts, 15, 20)
	tr.BuildLists(nil)
	ops := NewOperators(kernel.Laplace{}, 4, 1e-9)
	rng := rand.New(rand.NewSource(6))
	s1 := randDensities(rng, 250, 1)
	s2 := randDensities(rng, 250, 1)
	eval := func(s []float64) []float64 {
		e := NewEngine(ops, tr)
		e.SetPointDensities(s)
		e.Evaluate()
		return e.PointPotentials()
	}
	f1 := eval(s1)
	f2 := eval(s2)
	comb := make([]float64, len(s1))
	for i := range comb {
		comb[i] = 2.5*s1[i] + s2[i]
	}
	fc := eval(comb)
	for i := range fc {
		want := 2.5*f1[i] + f2[i]
		if math.Abs(fc[i]-want) > 1e-10*(1+math.Abs(want)) {
			t.Fatalf("linearity violated at %d", i)
		}
	}
}

func TestEngineProfileCountsPhases(t *testing.T) {
	pts := geom.Generate(geom.Ellipsoid, 600, 4)
	tr := octree.Build(pts, 10, 20)
	tr.BuildLists(nil)
	ops := NewOperators(kernel.Laplace{}, 4, 1e-9)
	e := NewEngine(ops, tr)
	e.Prof = diag.NewProfile()
	e.SetPointDensities(randDensities(rand.New(rand.NewSource(1)), 600, 1))
	e.Evaluate()
	for _, ph := range []string{diag.PhaseUpward, diag.PhaseUList, diag.PhaseVList, diag.PhaseDownward} {
		if e.Prof.Flops(ph) <= 0 {
			t.Fatalf("phase %s recorded no flops", ph)
		}
	}
	if e.Prof.Time(diag.PhaseTotalEval) <= 0 {
		t.Fatalf("total eval time not recorded")
	}
}

func TestOperatorScales(t *testing.T) {
	ops := NewOperators(kernel.Laplace{}, 4, 1e-9)
	if ops.KernScale(0) != 1 || ops.PinvScale(0) != 1 {
		t.Fatalf("reference level scale must be 1")
	}
	if ops.KernScale(3) != 8 || ops.PinvScale(3) != 0.125 {
		t.Fatalf("degree-1 scaling wrong: %v %v", ops.KernScale(3), ops.PinvScale(3))
	}
}

func TestM2LRejectsAdjacentDirections(t *testing.T) {
	ops := NewOperators(kernel.Laplace{}, 3, 1e-9)
	defer func() {
		if recover() == nil {
			t.Fatalf("expected panic for adjacent direction")
		}
	}()
	ops.M2LAt(0, 1, 0, 0)
}
