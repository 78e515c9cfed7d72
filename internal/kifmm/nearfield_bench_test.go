package kifmm

import (
	"context"
	"math/rand"
	"testing"

	"kifmm/internal/geom"
	"kifmm/internal/kernel"
	"kifmm/internal/octree"
	"kifmm/internal/sched"
)

// The near-field benchmarks compare the batched panel bodies (what the
// engine now runs) against the pre-panel pairwise bodies replicated below:
// per-pair dynamic Kernel.Eval dispatch over freshly allocated
// LeafPoints/Grid.Points slices, which is exactly what the engine did
// before the streaming Layout. Each benchmark runs one full phase over a
// 30k-point ellipsoid tree; -benchmem shows the per-phase allocation
// counts (the panel path allocates only per-worker scratch).

// benchKernels pairs each kernel with the label used in sub-benchmark names.
var benchKernels = []struct {
	name string
	kern kernel.Kernel
}{
	{"laplace", kernel.Laplace{}},
	{"stokes", kernel.Stokes{}},
	{"yukawa", kernel.Yukawa{Lambda: 1.3}},
}

// nearFieldEngine builds a 30k-point ellipsoid engine with random densities
// and random equivalent densities, so every near-field phase has realistic
// work.
func nearFieldEngine(b testing.TB, kern kernel.Kernel) *Engine {
	b.Helper()
	const n = 30000
	pts := geom.Generate(geom.Ellipsoid, n, 42)
	tr := octree.Build(pts, 60, 20)
	tr.BuildLists(nil)
	ops := NewOperators(kern, 6, 1e-9)
	e := NewEngine(ops, tr)
	e.Workers = 1
	rng := rand.New(rand.NewSource(7))
	e.SetPointDensities(randDensities(rng, n, kern.SrcDim()))
	for i := range e.U {
		for x := range e.U[i] {
			e.U[i][x] = rng.NormFloat64()
			e.D[i][x] = rng.NormFloat64()
		}
	}
	return e
}

func benchPhase(b *testing.B, panel, pairwise func(e *Engine)) {
	for _, bk := range benchKernels {
		e := nearFieldEngine(b, bk.kern)
		b.Run(bk.name+"/float64", func(b *testing.B) {
			b.ReportAllocs()
			for k := 0; k < b.N; k++ {
				panel(e)
			}
		})
		b.Run(bk.name+"/pairwise", func(b *testing.B) {
			b.ReportAllocs()
			for k := 0; k < b.N; k++ {
				pairwise(e)
			}
		})
	}
}

func BenchmarkNearFieldULI(b *testing.B) {
	benchPhase(b,
		func(e *Engine) { e.ULI() },
		func(e *Engine) {
			t := e.Tree
			sched.For(e.Workers, len(t.Leaves), func(li int) {
				uliLeafPairwise(e, t.Leaves[li])
			})
		})
}

func BenchmarkNearFieldD2T(b *testing.B) {
	benchPhase(b,
		func(e *Engine) { e.D2T() },
		func(e *Engine) {
			t := e.Tree
			sched.For(e.Workers, len(t.Leaves), func(li int) {
				d2tLeafPairwise(e, t.Leaves[li])
			})
		})
}

func BenchmarkNearFieldWLI(b *testing.B) {
	benchPhase(b,
		func(e *Engine) { e.WLI() },
		func(e *Engine) {
			t := e.Tree
			sched.For(e.Workers, len(t.Leaves), func(li int) {
				wliLeafPairwise(e, t.Leaves[li])
			})
		})
}

// BenchmarkNearFieldWX runs rows X, D2D and W as one task graph, as an
// evaluation does, with W ⟷ X paired (one EvalPair per served entry) and one
// way (sharedPair false: an EvalPanel per direction).
func BenchmarkNearFieldWX(b *testing.B) {
	shared := sharedPair
	defer func() { sharedPair = shared }()
	for _, bk := range benchKernels {
		e := nearFieldEngine(b, bk.kern)
		for _, mode := range []struct {
			name   string
			shared func(kernel.Batch) bool
		}{{"pair", shared}, {"oneway", func(kernel.Batch) bool { return false }}} {
			b.Run(bk.name+"/"+mode.name, func(b *testing.B) {
				sharedPair = mode.shared
				run := func() {
					var r Record
					if err := e.runRows(context.Background(), pXLI, pWLI+1, nil, &r); err != nil {
						b.Fatal(err)
					}
				}
				// The engine's first run compiles its graph and grows its
				// buffers: warm it, so one iteration times a warm run.
				run()
				b.ReportAllocs()
				b.ResetTimer()
				for k := 0; k < b.N; k++ {
					run()
				}
			})
		}
	}
}

// centerRad recomputes a node's center and half-side from its Morton key,
// as the pre-panel bodies did per call.
func centerRad(e *Engine, i int32) (geom.Point, float64) {
	k := e.Tree.Nodes[i].Key
	x, y, z := k.Center()
	return geom.Point{X: x, Y: y, Z: z}, k.Side() / 2
}

// uliLeafPairwise is the pre-panel U-list body (flop accounting elided).
func uliLeafPairwise(e *Engine, i int32) {
	t := e.Tree
	kern := e.Ops.Kern
	sd, td := kern.SrcDim(), kern.TrgDim()
	n := &t.Nodes[i]
	if len(n.U) == 0 || n.NPoints() == 0 {
		return
	}
	trgs := t.LeafPoints(i)
	for _, a := range n.U {
		an := &t.Nodes[a]
		srcs := t.LeafPoints(a)
		for pi, p := range trgs {
			out := e.Potential[(int(n.PtLo)+pi)*td : (int(n.PtLo)+pi+1)*td]
			for si, sp := range srcs {
				kern.Eval(p, sp, e.Density[(int(an.PtLo)+si)*sd:(int(an.PtLo)+si+1)*sd], out)
			}
		}
	}
}

// d2tLeafPairwise is the pre-panel D2T body.
func d2tLeafPairwise(e *Engine, i int32) {
	t := e.Tree
	kern := e.Ops.Kern
	sd, td := kern.SrcDim(), kern.TrgDim()
	n := &t.Nodes[i]
	if !n.Local || n.NPoints() == 0 {
		return
	}
	c, h := centerRad(e, i)
	de := e.Ops.Grid.Points(c, RadOuter*h)
	trgs := t.LeafPoints(i)
	for pi, p := range trgs {
		out := e.Potential[(int(n.PtLo)+pi)*td : (int(n.PtLo)+pi+1)*td]
		for si, sp := range de {
			kern.Eval(p, sp, e.D[i][si*sd:(si+1)*sd], out)
		}
	}
}

// wliLeafPairwise is the pre-panel W-list body.
func wliLeafPairwise(e *Engine, i int32) {
	t := e.Tree
	kern := e.Ops.Kern
	sd, td := kern.SrcDim(), kern.TrgDim()
	n := &t.Nodes[i]
	if len(n.W) == 0 || n.NPoints() == 0 {
		return
	}
	trgs := t.LeafPoints(i)
	for _, a := range n.W {
		c, h := centerRad(e, a)
		ue := e.Ops.Grid.Points(c, RadInner*h)
		ua := e.U[a]
		for pi, p := range trgs {
			out := e.Potential[(int(n.PtLo)+pi)*td : (int(n.PtLo)+pi+1)*td]
			for si, sp := range ue {
				kern.Eval(p, sp, ua[si*sd:(si+1)*sd], out)
			}
		}
	}
}

// BenchmarkLayoutBuild measures plan-time layout construction with and
// without the float32 coordinate mirrors — the cost every pure-float64 plan
// used to pay for a consumer that never existed (mirror construction is now
// gated on need).
func BenchmarkLayoutBuild(b *testing.B) {
	const n = 200000
	pts := geom.Generate(geom.Ellipsoid, n, 42)
	tr := octree.Build(pts, 60, 20)
	tr.BuildLists(nil)
	ops := NewOperators(kernel.Laplace{}, 6, 1e-9)
	for _, cfg := range []struct {
		name string
		f32  bool
	}{{"gated", false}, {"mirrors", true}} {
		b.Run(cfg.name, func(b *testing.B) {
			b.ReportAllocs()
			for k := 0; k < b.N; k++ {
				NewLayout(tr, ops, cfg.f32)
			}
		})
	}
}
