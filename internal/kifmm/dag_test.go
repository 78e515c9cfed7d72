package kifmm

import (
	"fmt"
	"math/rand"
	"testing"

	"kifmm/internal/geom"
	"kifmm/internal/kernel"
	"kifmm/internal/octree"
	"kifmm/internal/sched"
)

// newTestEngine builds tree + engine for one configuration.
func newTestEngine(t *testing.T, kern kernel.Kernel, dist geom.Distribution, n, q int, useFFT bool, workers int) *Engine {
	t.Helper()
	pts := geom.Generate(dist, n, 42)
	tr := octree.Build(pts, q, 20)
	tr.BuildLists(nil)
	ops := NewOperators(kern, 4, 1e-9)
	e := NewEngine(ops, tr)
	e.UseFFTM2L = useFFT
	e.Workers = workers
	den := randDensities(rand.New(rand.NewSource(7)), n, kern.SrcDim())
	e.SetPointDensities(den)
	return e
}

// bitIdentical fails unless every element of got equals want exactly.
func bitIdentical(t *testing.T, label string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d vs %d", label, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s: element %d differs: %v vs %v (not bit-identical)", label, i, got[i], want[i])
		}
	}
}

// graphWorkers are the worker counts every oracle ≡ graph test runs.
var graphWorkers = []int{1, 2, 4}

// sameState fails unless two engines hold bit-identical potentials and
// per-node U, D and DChk.
func sameState(t *testing.T, label string, got, want *Engine) {
	t.Helper()
	bitIdentical(t, label+" Potential", got.Potential, want.Potential)
	for i := range want.U {
		bitIdentical(t, label+" U", got.U[i], want.U[i])
		bitIdentical(t, label+" D", got.D[i], want.D[i])
		bitIdentical(t, label+" DChk", got.DChk[i], want.DChk[i])
	}
}

// TestEvaluateDAGBitIdentical is the differential oracle: the task graph must
// reproduce the sequential walk of the phase table (oracle) bit for bit —
// same per-octant bodies, same accumulation order — across distributions,
// translation modes and kernels, at 1, 2 and 4 workers in every case.
func TestEvaluateDAGBitIdentical(t *testing.T) {
	cases := []struct {
		name   string
		kern   kernel.Kernel
		dist   geom.Distribution
		n, q   int
		useFFT bool
	}{
		// The /wN suffixes are the cases' names from when each ran at one
		// worker count; every case now runs at all of graphWorkers.
		{"laplace/uniform/dense/w1", kernel.Laplace{}, geom.Uniform, 700, 15, false},
		{"laplace/uniform/dense/w4", kernel.Laplace{}, geom.Uniform, 700, 30, false},
		{"laplace/uniform/fft/w4", kernel.Laplace{}, geom.Uniform, 700, 30, true},
		{"laplace/ellipsoid/dense/w4", kernel.Laplace{}, geom.Ellipsoid, 900, 8, false},
		{"laplace/ellipsoid/fft/w4", kernel.Laplace{}, geom.Ellipsoid, 900, 8, true},
		{"stokes/ellipsoid/dense/w4", kernel.Stokes{}, geom.Ellipsoid, 400, 12, false},
		{"yukawa/ellipsoid/fft/w4", kernel.Yukawa{Lambda: 5}, geom.Ellipsoid, 500, 10, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			oracle := newTestEngine(t, tc.kern, tc.dist, tc.n, tc.q, tc.useFFT, 1)
			oracle.oracle()
			for _, workers := range graphWorkers {
				dag := newTestEngine(t, tc.kern, tc.dist, tc.n, tc.q, tc.useFFT, workers)
				st, err := dag.EvaluateDAG(nil)
				if err != nil {
					t.Fatal(err)
				}
				if st.Tasks == 0 {
					t.Fatal("DAG ran no tasks")
				}
				sameState(t, fmt.Sprintf("graph w%d vs oracle", workers), dag, oracle)
			}
		})
	}
}

// TestEvaluateDAGRepeatable: with a fixed density vector, repeated DAG
// evaluations (arbitrary interleavings) must stay bit-identical — the
// determinism claim of DESIGN.md §7.2.
func TestEvaluateDAGRepeatable(t *testing.T) {
	e := newTestEngine(t, kernel.Laplace{}, geom.Ellipsoid, 800, 10, true, 4)
	if _, err := e.EvaluateDAG(nil); err != nil {
		t.Fatal(err)
	}
	first := append([]float64(nil), e.Potential...)
	for trial := 0; trial < 3; trial++ {
		e.Reset()
		if _, err := e.EvaluateDAG(nil); err != nil {
			t.Fatal(err)
		}
		bitIdentical(t, "repeat", e.Potential, first)
	}
}

// TestEvaluateDAGTrace checks that tracing records one event per task.
func TestEvaluateDAGTrace(t *testing.T) {
	e := newTestEngine(t, kernel.Laplace{}, geom.Uniform, 500, 25, false, 2)
	tr := sched.NewTrace()
	st, err := e.EvaluateDAG(tr)
	if err != nil {
		t.Fatal(err)
	}
	if int64(tr.Events()) != st.Tasks {
		t.Fatalf("trace has %d events for %d tasks", tr.Events(), st.Tasks)
	}
}

// TestEvaluateDAGStats sanity-checks the scheduler stats surface.
func TestEvaluateDAGStats(t *testing.T) {
	e := newTestEngine(t, kernel.Laplace{}, geom.Ellipsoid, 800, 10, false, 4)
	st, err := e.EvaluateDAG(nil)
	if err != nil {
		t.Fatal(err)
	}
	if st.Tasks <= int64(len(e.Tree.Leaves)) {
		t.Fatalf("implausibly few tasks: %d for %d leaves", st.Tasks, len(e.Tree.Leaves))
	}
	if st.Steals != st.Stolen || st.Steals > st.Tasks {
		t.Fatalf("Steals %d, Stolen %d for %d tasks", st.Steals, st.Stolen, st.Tasks)
	}
}

// BenchmarkCompile times EnginePool.Compile — the task graph, pairing table,
// V groups and tables a plan builds once — on the far_uniform benchmark's
// tree: 100k uniform points, q = 50, Laplace at order 6, 2 workers. Every
// plan-cache miss and session step pays it.
func BenchmarkCompile(b *testing.B) {
	tr := octree.Build(geom.Generate(geom.Uniform, 100000, 1), 50, 20)
	tr.BuildLists(nil)
	ops := NewOperators(kernel.Laplace{}, 6, 1e-9)
	spec := EngineSpec{Ops: ops, Workers: 2}
	spec.NewPool(tr, 0).Compile(false) // resolve the translation spectra once
	b.ReportAllocs()
	b.ResetTimer()
	for k := 0; k < b.N; k++ {
		b.StopTimer() // the pool's layout is not the compile's
		pool := spec.NewPool(tr, 0)
		b.StartTimer()
		pool.Compile(false)
	}
}
