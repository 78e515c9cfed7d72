package gpu

import (
	"math"
	"math/rand"
	"testing"

	"kifmm/internal/diag"
	"kifmm/internal/geom"
	"kifmm/internal/kernel"
	"kifmm/internal/kifmm"
	"kifmm/internal/octree"
	"kifmm/internal/perfmodel"
	"kifmm/internal/stream"
)

// setup builds a tree and two identical engines (CPU reference and device
// under test) with shared densities.
func setup(t *testing.T, dist geom.Distribution, n, q, p int) (*kifmm.Engine, *kifmm.Engine, *FMMAccel) {
	t.Helper()
	pts := geom.Generate(dist, n, 21)
	tr := octree.Build(pts, q, 20)
	tr.BuildLists(nil)
	ops := kifmm.NewOperators(kernel.Laplace{}, p, 1e-9)
	cpu := kifmm.NewEngine(ops, tr)
	dev := kifmm.NewEngine(ops, tr)
	cpu.Workers, dev.Workers = 4, 4
	rng := rand.New(rand.NewSource(33))
	den := make([]float64, n)
	for i := range den {
		den[i] = rng.NormFloat64()
	}
	cpu.SetPointDensities(den)
	dev.SetPointDensities(den)
	accel := New(stream.NewDevice())
	return cpu, dev, accel
}

func maxRelDiff(a, b []float64) float64 {
	var mx float64
	for i := range a {
		d := math.Abs(a[i] - b[i])
		scale := 1 + math.Max(math.Abs(a[i]), math.Abs(b[i]))
		if r := d / scale; r > mx {
			mx = r
		}
	}
	return mx
}

func TestULIMatchesCPU(t *testing.T) {
	cpu, dev, accel := setup(t, geom.Uniform, 1000, 40, 4)
	cpu.ULI()
	accel.ULI(dev)
	if d := maxRelDiff(cpu.Potential, dev.Potential); d > 5e-5 {
		t.Fatalf("ULI differs from CPU by %g", d)
	}
	if accel.PhaseTimes[diag.PhaseUList] <= 0 {
		t.Fatalf("no modeled ULI time recorded")
	}
	if accel.TranslationBytes == 0 {
		t.Fatalf("translation footprint not tracked")
	}
}

func TestULIHandlesNonuniformTrees(t *testing.T) {
	// The clustered ellipsoid surface has near-singular pairs whose large
	// intermediate terms amplify float32 rounding (the paper's
	// single-precision limitation), so the tolerance is looser here.
	cpu, dev, accel := setup(t, geom.Ellipsoid, 1200, 10, 4)
	cpu.ULI()
	accel.ULI(dev)
	if d := maxRelDiff(cpu.Potential, dev.Potential); d > 1e-2 {
		t.Fatalf("nonuniform ULI differs by %g", d)
	}
}

func TestS2UMatchesCPU(t *testing.T) {
	// The device S2U uses the float32-appropriate regularization (tol32),
	// so the reference engine is built with the same tolerance; residual
	// differences are float32 rounding amplified by ≲ 1/tol32.
	pts := geom.Generate(geom.Uniform, 800, 21)
	tr := octree.Build(pts, 40, 20)
	tr.BuildLists(nil)
	accel := New(stream.NewDevice())
	ops := kifmm.NewOperators(kernel.Laplace{}, 4, tol32)
	cpu := kifmm.NewEngine(ops, tr)
	dev := kifmm.NewEngine(ops, tr)
	rng := rand.New(rand.NewSource(33))
	den := make([]float64, 800)
	for i := range den {
		den[i] = rng.NormFloat64()
	}
	cpu.SetPointDensities(den)
	dev.SetPointDensities(den)
	cpu.S2U()
	accel.S2U(dev)
	for i := range cpu.U {
		if d := maxRelDiff(cpu.U[i], dev.U[i]); d > 5e-3 {
			t.Fatalf("S2U differs at node %d by %g", i, d)
		}
	}
}

func TestVLIMatchesCPU(t *testing.T) {
	cpu, dev, accel := setup(t, geom.Uniform, 1000, 30, 4)
	cpu.S2U()
	cpu.U2U()
	dev.S2U()
	dev.U2U()
	cpu.VLI()
	accel.VLI(dev)
	for i := range cpu.DChk {
		if d := maxRelDiff(cpu.DChk[i], dev.DChk[i]); d > 5e-5 {
			t.Fatalf("VLI differs at node %d by %g", i, d)
		}
	}
}

func TestD2TMatchesCPU(t *testing.T) {
	cpu, dev, accel := setup(t, geom.Uniform, 800, 40, 4)
	for _, e := range []*kifmm.Engine{cpu, dev} {
		e.S2U()
		e.U2U()
		e.VLI()
		e.XLI()
		e.Downward()
	}
	cpu.D2T()
	accel.D2T(dev)
	if d := maxRelDiff(cpu.Potential, dev.Potential); d > 5e-5 {
		t.Fatalf("D2T differs by %g", d)
	}
}

func TestFullAcceleratedEvaluationAccuracy(t *testing.T) {
	// Run the complete FMM with all four accelerated phases substituted and
	// compare against the direct sum (single-precision tolerance).
	pts := geom.Generate(geom.Uniform, 1200, 23)
	tr := octree.Build(pts, 60, 20)
	tr.BuildLists(nil)
	ops := kifmm.NewOperators(kernel.Laplace{}, 6, 1e-9)
	e := kifmm.NewEngine(ops, tr)
	e.Workers = 4
	rng := rand.New(rand.NewSource(9))
	den := make([]float64, len(pts))
	for i := range den {
		den[i] = rng.NormFloat64()
	}
	e.SetPointDensities(den)
	accel := New(stream.NewDevice())

	accel.S2U(e)
	e.U2U()
	accel.VLI(e)
	e.XLI()
	e.Downward()
	e.WLI()
	accel.D2T(e)
	accel.ULI(e)

	got := e.PointPotentials()
	want := kernel.Direct(kernel.Laplace{}, pts, pts, den)
	var num, dn float64
	for i := range got {
		d := got[i] - want[i]
		num += d * d
		dn += want[i] * want[i]
	}
	// Single-precision device arithmetic bounds the achievable accuracy
	// (~4 digits), per the paper's limitations section.
	if err := math.Sqrt(num / dn); err > 2e-4 {
		t.Fatalf("accelerated FMM rel err %g", err)
	}
}

func TestModeledSpeedupShape(t *testing.T) {
	// The paper's qualitative claims: the direct (U-list) phase achieves a
	// large speedup over the modeled CPU, and the V-list Hadamard stage is
	// the least efficient accelerated phase.
	cpu, dev, accel := setup(t, geom.Uniform, 4000, 100, 6)
	cpu.Prof = diag.NewProfile()
	cpu.S2U()
	cpu.U2U()
	cpu.VLI()
	dev.S2U()
	dev.U2U()
	accel.VLI(dev)
	accel.ULI(dev)
	cpu.ULI()

	uliSpeed := perfmodel.Work{Flops: cpu.Prof.Flops(diag.PhaseUList)}.Seconds() /
		accel.PhaseTimes[diag.PhaseUList].Seconds()
	vliSpeed := perfmodel.Work{Flops: cpu.Prof.Flops(diag.PhaseVList)}.Seconds() /
		accel.PhaseTimes[diag.PhaseVList].Seconds()
	if uliSpeed < 5 {
		t.Fatalf("ULI modeled speedup too small: %.1f", uliSpeed)
	}
	if vliSpeed >= uliSpeed {
		t.Fatalf("V-list should be the least efficient phase: vli %.1f vs uli %.1f",
			vliSpeed, uliSpeed)
	}
}

func TestRequireLaplaceRejectsStokes(t *testing.T) {
	pts := geom.Generate(geom.Uniform, 100, 1)
	tr := octree.Build(pts, 20, 20)
	tr.BuildLists(nil)
	ops := kifmm.NewOperators(kernel.Stokes{}, 4, 1e-9)
	e := kifmm.NewEngine(ops, tr)
	accel := New(stream.NewDevice())
	defer func() {
		if recover() == nil {
			t.Fatalf("expected panic for stokes on device")
		}
	}()
	accel.ULI(e)
}

func TestWLIMatchesCPU(t *testing.T) {
	// Small q on the clustered distribution produces nonempty W lists.
	cpu, dev, accel := setup(t, geom.Ellipsoid, 1500, 8, 6)
	for _, e := range []*kifmm.Engine{cpu, dev} {
		e.S2U()
		e.U2U()
	}
	cpu.WLI()
	accel.WLI(dev)
	if d := maxRelDiff(cpu.Potential, dev.Potential); d > 1e-2 {
		t.Fatalf("WLI differs by %g", d)
	}
	if accel.PhaseTimes[diag.PhaseWList] <= 0 {
		t.Fatalf("no modeled WLI time")
	}
	// Ensure the test exercised actual work.
	nonzero := false
	for _, v := range dev.Potential {
		if v != 0 {
			nonzero = true
			break
		}
	}
	if !nonzero {
		t.Fatalf("W lists were empty; test vacuous")
	}
}

func TestXLIMatchesCPU(t *testing.T) {
	cpu, dev, accel := setup(t, geom.Ellipsoid, 1500, 8, 6)
	cpu.XLI()
	accel.XLI(dev)
	worst := 0.0
	nonzero := false
	for i := range cpu.DChk {
		if d := maxRelDiff(cpu.DChk[i], dev.DChk[i]); d > worst {
			worst = d
		}
		for _, v := range dev.DChk[i] {
			if v != 0 {
				nonzero = true
			}
		}
	}
	if worst > 1e-2 {
		t.Fatalf("XLI differs by %g", worst)
	}
	if !nonzero {
		t.Fatalf("X lists were empty; test vacuous")
	}
}

func TestFullyAcceleratedWithWX(t *testing.T) {
	// All six device phases together must still match the direct sum at
	// single precision.
	pts := geom.Generate(geom.Ellipsoid, 1500, 27)
	tr := octree.Build(pts, 12, 20)
	tr.BuildLists(nil)
	ops := kifmm.NewOperators(kernel.Laplace{}, 6, 1e-9)
	e := kifmm.NewEngine(ops, tr)
	e.Workers = 4
	rng := rand.New(rand.NewSource(13))
	den := make([]float64, len(pts))
	for i := range den {
		den[i] = rng.NormFloat64()
	}
	e.SetPointDensities(den)
	accel := New(stream.NewDevice())
	accel.S2U(e)
	e.U2U()
	accel.VLI(e)
	accel.XLI(e)
	e.Downward()
	accel.WLI(e)
	accel.D2T(e)
	accel.ULI(e)
	got := e.PointPotentials()
	want := kernel.Direct(kernel.Laplace{}, pts, pts, den)
	var num, dn float64
	for i := range got {
		d := got[i] - want[i]
		num += d * d
		dn += want[i] * want[i]
	}
	if err := math.Sqrt(num / dn); err > 1e-3 {
		t.Fatalf("fully accelerated rel err %g", err)
	}
}
