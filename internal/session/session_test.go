package session

import (
	"math"
	"math/rand"
	"testing"

	"kifmm/internal/diag"
	"kifmm/internal/geom"
	"kifmm/internal/kernel"
	ikifmm "kifmm/internal/kifmm"
	"kifmm/internal/octree"
)

// freshEval is the re-plan oracle: a from-scratch tree, lists, and engine
// over the same live point set, evaluated on one worker.
func freshEval(pts []geom.Point, den []float64, cfg Config) []float64 {
	t := octree.Build(pts, cfg.Q, cfg.MaxDepth)
	t.BuildLists(nil)
	e := cfg.Spec.NewEngine(t, nil)
	e.SetPointDensities(den)
	e.Evaluate()
	return e.PointPotentials()
}

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

func clampUnit(v float64) float64 {
	if v < 0 {
		return 0
	}
	if v >= 1 {
		return math.Nextafter(1, 0)
	}
	return v
}

// randomDelta builds a delta over the session's live IDs: mostly small
// jitter (exercising the non-migrant fast path), some teleports
// (migrations), plus additions and removals.
func randomDelta(rng *rand.Rand, s *Session, moveFrac, teleportFrac float64, adds, removes int) Delta {
	ids := s.IDs()
	var d Delta
	for _, id := range ids {
		r := rng.Float64()
		if r < teleportFrac {
			d.Move = append(d.Move, PointMove{ID: id, To: geom.Point{
				X: rng.Float64(), Y: rng.Float64(), Z: rng.Float64()}})
		} else if r < teleportFrac+moveFrac {
			p := s.pos[id]
			const sigma = 0.01
			d.Move = append(d.Move, PointMove{ID: id, To: geom.Point{
				X: clampUnit(p.X + sigma*rng.NormFloat64()),
				Y: clampUnit(p.Y + sigma*rng.NormFloat64()),
				Z: clampUnit(p.Z + sigma*rng.NormFloat64()),
			}})
		}
	}
	for i := 0; i < adds; i++ {
		d.Add = append(d.Add, geom.Point{X: rng.Float64(), Y: rng.Float64(), Z: rng.Float64()})
	}
	for i := 0; i < removes && len(ids) > 0; i++ {
		k := rng.Intn(len(ids))
		d.Remove = append(d.Remove, ids[k])
		ids = append(ids[:k], ids[k+1:]...)
	}
	return d
}

// TestStepMatchesFreshPlan is the differential property test of the issue's
// acceptance criteria: after any delta sequence, session evaluation matches
// a fresh plan over the final point set within 1e-9, for every kernel on
// uniform and ellipsoid distributions.
func TestStepMatchesFreshPlan(t *testing.T) {
	kernels := []struct {
		name string
		k    kernel.Kernel
		n    int
	}{
		{"laplace", kernel.ByName("laplace"), 700},
		{"stokes", kernel.ByName("stokes"), 400},
		{"yukawa", kernel.Yukawa{Lambda: 5}, 500},
	}
	dists := []struct {
		name string
		d    geom.Distribution
	}{
		{"uniform", geom.Uniform},
		{"ellipsoid", geom.Ellipsoid},
	}
	for _, kc := range kernels {
		for _, dc := range dists {
			t.Run(kc.name+"/"+dc.name, func(t *testing.T) {
				rng := rand.New(rand.NewSource(42))
				cfg := Config{
					Spec:     ikifmm.EngineSpec{Ops: ikifmm.NewOperators(kc.k, 4, 1e-9)},
					Q:        25,
					MaxDepth: 12,
					// Keep the heavy steps on the incremental path so the
					// split/merge machinery (not the replan fallback, which
					// TestReplanFallback covers) is what gets verified.
					replanFraction: 0.9,
				}
				pts := geom.Generate(dc.d, kc.n, 7)
				s, err := New(pts, cfg)
				if err != nil {
					t.Fatal(err)
				}
				sd := kc.k.SrcDim()
				sawMigrated, sawSplit, sawMerge := false, false, false
				for step := 0; step < 6; step++ {
					// Step 3 adds a dense cluster to force splits; step 5
					// empties a spatial region to force merges.
					d := randomDelta(rng, s, 0.15, 0.03, 15, 10)
					if step == 3 {
						c := geom.Point{X: 0.3, Y: 0.3, Z: 0.3}
						for i := 0; i < 60; i++ {
							d.Add = append(d.Add, geom.Point{
								X: clampUnit(c.X + 0.004*rng.NormFloat64()),
								Y: clampUnit(c.Y + 0.004*rng.NormFloat64()),
								Z: clampUnit(c.Z + 0.004*rng.NormFloat64()),
							})
						}
					}
					if step == 5 {
						d = Delta{}
						ids, pts := s.IDs(), s.Points()
						for i, id := range ids {
							p := pts[i]
							if p.X < 0.6 && p.Y < 0.6 && p.Z < 0.6 {
								d.Remove = append(d.Remove, id)
							}
						}
					}
					info, err := s.Step(d)
					if err != nil {
						t.Fatalf("step %d: %v", step, err)
					}
					sawMigrated = sawMigrated || info.Migrated > 0
					sawSplit = sawSplit || info.Splits > 0
					sawMerge = sawMerge || info.Merges > 0
					if err := s.tree.Validate(); err != nil {
						t.Fatalf("step %d: tree invalid: %v", step, err)
					}
					den := make([]float64, s.NumPoints()*sd)
					for i := range den {
						den[i] = rng.Float64()*2 - 1
					}
					got, err := s.Apply(den)
					if err != nil {
						t.Fatalf("step %d: apply: %v", step, err)
					}
					want := freshEval(s.Points(), den, cfg)
					if e := relErr(got, want); e > 1e-9 {
						t.Fatalf("step %d (%+v): session vs fresh plan rel err %.3g", step, info, e)
					}
				}
				if !sawMigrated || !sawSplit || !sawMerge {
					t.Fatalf("delta sequence too tame: migrated=%v split=%v merge=%v",
						sawMigrated, sawSplit, sawMerge)
				}
			})
		}
	}
}

// TestReplanFallback checks that a churn-heavy delta transparently re-plans
// and still matches the oracle.
func TestReplanFallback(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	cfg := Config{
		Spec:     ikifmm.EngineSpec{Ops: ikifmm.NewOperators(kernel.ByName("laplace"), 4, 1e-9)},
		Q:        25,
		MaxDepth: 12,
	}
	pts := geom.Generate(geom.Uniform, 600, 11)
	s, err := New(pts, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Teleport half the ensemble: far over the default 25% replan fraction.
	d := randomDelta(rng, s, 0, 0.5, 0, 0)
	info, err := s.Step(d)
	if err != nil {
		t.Fatal(err)
	}
	if !info.Replanned {
		t.Fatalf("expected replan, got %+v", info)
	}
	if info.DeadNodes != 0 {
		t.Fatalf("replan should compact tombstones, got %d dead", info.DeadNodes)
	}
	den := make([]float64, s.NumPoints())
	for i := range den {
		den[i] = rng.Float64()
	}
	got, _ := s.Apply(den)
	want := freshEval(s.Points(), den, cfg)
	if e := relErr(got, want); e > 1e-9 {
		t.Fatalf("post-replan rel err %.3g", e)
	}
}

// TestFullListRebuildFallback drives a session with maxPatchSites 1 so any
// multi-site step exceeds the patch budget, exercising the whole-list
// rebuild path on the edited tree.
func TestFullListRebuildFallback(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	cfg := Config{
		Spec:          ikifmm.EngineSpec{Ops: ikifmm.NewOperators(kernel.ByName("laplace"), 4, 1e-9)},
		Q:             10,
		MaxDepth:      12,
		maxPatchSites: 1,
	}
	pts := geom.Generate(geom.Uniform, 500, 13)
	s, err := New(pts, cfg)
	if err != nil {
		t.Fatal(err)
	}
	saw := false
	for step := 0; step < 4; step++ {
		d := randomDelta(rng, s, 0.1, 0.05, 10, 5)
		info, err := s.Step(d)
		if err != nil {
			t.Fatal(err)
		}
		saw = saw || info.FullListRebuild
		den := make([]float64, s.NumPoints())
		for i := range den {
			den[i] = rng.Float64()
		}
		got, _ := s.Apply(den)
		want := freshEval(s.Points(), den, cfg)
		if e := relErr(got, want); e > 1e-9 {
			t.Fatalf("step %d rel err %.3g", step, e)
		}
	}
	if !saw {
		t.Fatal("no step exceeded the 1-site patch budget")
	}
}

// TestDAGSessionMatchesBarrier checks session evaluation on four workers
// against one worker, bit for bit, on an incrementally edited tree (appended
// nodes and tombstones, so a level's nodes are not all in Morton order). The
// independent reference on such trees is internal/kifmm's
// TestEditedTreeBitIdentical, which holds the graph to the sequential oracle.
func TestDAGSessionMatchesBarrier(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	mk := func(useDAG bool) *Session {
		cfg := Config{
			Spec:     ikifmm.EngineSpec{Ops: ikifmm.NewOperators(kernel.ByName("laplace"), 4, 1e-9)},
			Q:        20,
			MaxDepth: 12,
		}
		if useDAG {
			cfg.Spec.Workers = 4
		}
		pts := geom.Generate(geom.Uniform, 600, 17)
		s, err := New(pts, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	a, b := mk(false), mk(true)
	for step := 0; step < 3; step++ {
		d := randomDelta(rng, a, 0.1, 0.05, 10, 5)
		if _, err := a.Step(d); err != nil {
			t.Fatal(err)
		}
		if _, err := b.Step(d); err != nil {
			t.Fatal(err)
		}
		den := make([]float64, a.NumPoints())
		for i := range den {
			den[i] = rng.Float64()
		}
		pa, err := a.Apply(den)
		if err != nil {
			t.Fatal(err)
		}
		pb, err := b.Apply(den)
		if err != nil {
			t.Fatal(err)
		}
		for i := range pa {
			if pa[i] != pb[i] {
				t.Fatalf("step %d: 1 and 4 workers diverge at %d: %v vs %v", step, i, pa[i], pb[i])
			}
		}
	}
}

// TestStepErrors checks delta validation.
func TestStepErrors(t *testing.T) {
	cfg := Config{Spec: ikifmm.EngineSpec{Ops: ikifmm.NewOperators(kernel.ByName("laplace"), 4, 1e-9), DenseM2L: true}, Q: 10}
	s, err := New(geom.Generate(geom.Uniform, 50, 1), cfg)
	if err != nil {
		t.Fatal(err)
	}
	cases := []Delta{
		{Move: []PointMove{{ID: 99, To: geom.Point{X: 0.5, Y: 0.5, Z: 0.5}}}},
		{Move: []PointMove{{ID: 0, To: geom.Point{X: 1.5, Y: 0.5, Z: 0.5}}}},
		{Add: []geom.Point{{X: -0.1, Y: 0, Z: 0}}},
		{Remove: []int{77}},
		{Remove: []int{3, 3}},
	}
	for i, d := range cases {
		if _, err := s.Step(d); err == nil {
			t.Fatalf("case %d: expected error", i)
		}
	}
	// Errors must not have mutated the session.
	if s.NumPoints() != 50 {
		t.Fatalf("failed steps mutated the session: %d points", s.NumPoints())
	}
	den := make([]float64, 50)
	if _, err := s.Apply(den); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Apply(den[:10]); err == nil {
		t.Fatal("expected density length error")
	}
}

// TestRemoveAllButOne drains the ensemble to a single point through
// repeated removals (mass merges, empty leaves) and keeps matching the
// oracle.
func TestRemoveAllButOne(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	cfg := Config{
		Spec:     ikifmm.EngineSpec{Ops: ikifmm.NewOperators(kernel.ByName("laplace"), 4, 1e-9)},
		Q:        10,
		MaxDepth: 12,
		// Keep removals on the incremental path to stress merges.
		replanFraction: 0.9,
	}
	s, err := New(geom.Generate(geom.Uniform, 300, 23), cfg)
	if err != nil {
		t.Fatal(err)
	}
	for s.NumPoints() > 1 {
		ids := s.IDs()
		n := len(ids) / 2
		if n == 0 {
			n = 1
		}
		d := Delta{Remove: ids[:n]}
		if _, err := s.Step(d); err != nil {
			t.Fatal(err)
		}
		if err := s.tree.Validate(); err != nil {
			t.Fatalf("tree invalid at %d points: %v", s.NumPoints(), err)
		}
		den := make([]float64, s.NumPoints())
		for i := range den {
			den[i] = rng.Float64()
		}
		got, err := s.Apply(den)
		if err != nil {
			t.Fatal(err)
		}
		want := freshEval(s.Points(), den, cfg)
		if e := relErr(got, want); e > 1e-9 {
			t.Fatalf("%d points: rel err %.3g", s.NumPoints(), e)
		}
	}
	if _, err := s.Step(Delta{Remove: s.IDs()}); err == nil {
		t.Fatal("emptying the session should error")
	}
}

// TestMemoryBytesTracksLayout: the session's byte estimate must count what
// its layout actually carries — mirror-free since the float32 near field
// localizes its own panels — so a mirror-carrying layout raises it by
// exactly 12 bytes per point.
func TestMemoryBytesTracksLayout(t *testing.T) {
	cfg := Config{Spec: ikifmm.EngineSpec{Ops: ikifmm.NewOperators(kernel.ByName("laplace"), 4, 1e-9)}, Q: 25, MaxDepth: 12}
	s, err := New(geom.Generate(geom.Uniform, 600, 11), cfg)
	if err != nil {
		t.Fatal(err)
	}
	bare := s.MemoryBytes()
	s.layout = ikifmm.NewLayout(s.tree, cfg.Spec.Ops, true)
	if got, want := s.MemoryBytes()-bare, int64(12*len(s.tree.Points)); got != want {
		t.Fatalf("mirror-carrying layout moved the estimate by %d bytes, want %d", got, want)
	}
}

// TestSessionReportsPhases: a session with a profile attached reports its
// evaluations like a plan does — engine phase times and flops, and on more
// than one worker the task graph's scheduler counters.
func TestSessionReportsPhases(t *testing.T) {
	cfg := Config{Spec: ikifmm.EngineSpec{Ops: ikifmm.NewOperators(kernel.ByName("laplace"), 4, 1e-9), Workers: 2}, Q: 25, MaxDepth: 12}
	pts := geom.Generate(geom.Uniform, 600, 11)
	s, err := New(pts, cfg)
	if err != nil {
		t.Fatal(err)
	}
	prof := diag.NewProfile()
	s.SetProfile(prof)
	den := make([]float64, len(pts))
	for i := range den {
		den[i] = float64(i%7) - 3
	}
	if _, err := s.Apply(den); err != nil {
		t.Fatal(err)
	}
	for _, ph := range []string{diag.PhaseVList, diag.PhaseUList} {
		if prof.Time(ph) <= 0 || prof.Flops(ph) <= 0 {
			t.Errorf("%s: %v, %d flops after one Apply", ph, prof.Time(ph), prof.Flops(ph))
		}
	}
	if n := prof.Counter(diag.CounterSchedGraphs); n < 1 {
		t.Errorf("sched_graphs = %d after one task-graph Apply", n)
	}
}
