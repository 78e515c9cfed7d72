package kifmm

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"kifmm/internal/diag"
	"kifmm/internal/geom"
	"kifmm/internal/kernel"
	"kifmm/internal/octree"
)

// wxCounts counts the W row's entries that carry sources by their links in
// the schedule last run: taking what X parked, one way.
func wxCounts(e *Engine) (served, oneWay int) {
	for _, run := range e.work(&phases[pWLI]) {
		for _, j := range run {
			_, _, links := e.pairs.lists(e.Tree, j)
			for k, a := range e.Tree.Nodes[j].W {
				switch {
				case !e.srcNode(a):
				case links[k] < -1:
					served++
				default:
					oneWay++
				}
			}
		}
	}
	return
}

// wxLinked counts the X and W entries of every node whose link is not
// one way, in the schedule last run.
func wxLinked(e *Engine) int {
	n := 0
	for i := range e.Tree.Nodes {
		_, x, w := e.pairs.lists(e.Tree, int32(i))
		for _, links := range [][]int32{x, w} {
			for _, l := range links {
				if l != -1 {
					n++
				}
			}
		}
	}
	return n
}

// unpairU has the U row of the engine's schedule of every row run one way,
// so that every partial parked is W ⟷ X's.
func unpairU(e *Engine) {
	e.pairRows(0, numRows)
	for _, i := range e.Tree.Leaves {
		u, _, _ := e.pairs.lists(e.Tree, i)
		for k := range u {
			u[k] = -1
		}
	}
}

// wxTree is one tree TestWXPairsMatchOneWay evaluates.
type wxTree struct {
	name     string
	tree     *octree.Tree
	nLead    int  // > 0: a split-role union tree, its leading nLead points targets
	exchange bool // Run with an exchange step: two graphs, W and X in the second
	oneWay   bool // the masks must leave some W ⟷ X entries one way
}

// wxTrees are a symmetric Plan's ellipsoid tree, run as one graph and as a
// distributed rank's two, a PlanAt union tree of two ellipsoids, one shifted
// (target-only, source-only and mixed leaves), and one rank's local
// essential tree out of two on the ellipsoid.
func wxTrees(t *testing.T) []wxTree {
	t.Helper()
	sym := octree.Build(geom.Generate(geom.Ellipsoid, 2500, 42), 25, 20)
	sym.BuildLists(nil)

	const nTrg, nSrc = 1000, 1500
	var union []geom.Point
	union = append(union, geom.Generate(geom.Ellipsoid, nTrg, 43)...)
	for _, p := range geom.Generate(geom.Ellipsoid, nSrc, 44) { // shifted into [0.15, 1)³
		union = append(union, geom.Point{X: 0.15 + 0.85*p.X, Y: 0.15 + 0.85*p.Y, Z: 0.15 + 0.85*p.Z})
	}
	ut := octree.Build(union, 20, 20)
	ut.BuildLists(nil)

	lets := rankLETs(t, geom.Generate(geom.Ellipsoid, 3000, 45), 30)
	return []wxTree{
		{name: "plan", tree: sym},
		{name: "exchange", tree: sym, exchange: true},
		{name: "planat", tree: ut, nLead: nTrg, oneWay: true},
		{name: "let", tree: lets[0], exchange: true},
	}
}

// TestWXPairsMatchOneWay evaluates each of wxTrees with W ⟷ X paired — the
// sequential oracle, and the task graph at 1 and 2 workers — and checks every
// potential and per-node U, D and DChk against the one-way evaluation
// (sharedPair false, so neither the U row nor W ⟷ X pairs) bit for bit, for
// every kernel: Stokes is paired too, to park partials of three components.
// The W and X rows' flops are the one-way evaluation's.
func TestWXPairsMatchOneWay(t *testing.T) {
	shared := sharedPair
	t.Cleanup(func() { sharedPair = shared })
	kerns := []kernel.Kernel{kernel.Laplace{}, kernel.Stokes{}, kernel.Yukawa{Lambda: 5}}
	for _, tc := range wxTrees(t) {
		for _, kern := range kerns {
			ops := NewOperators(kern, 4, 1e-9)
			sd := kern.SrcDim()
			mk := func(workers int) *Engine {
				e := NewEngine(ops, tc.tree)
				e.UseFFTM2L = true
				e.Workers = workers
				e.Prof = diag.NewProfile()
				rng := rand.New(rand.NewSource(12))
				if tc.nLead > 0 {
					e.SetSplitRoles(tc.nLead)
					e.SetDensitiesMasked(randDensities(rng, len(tc.tree.Points)-tc.nLead, sd), tc.nLead)
				} else {
					copy(e.Density, randDensities(rng, len(tc.tree.Points), sd))
				}
				return e
			}
			run := func(e *Engine) {
				var exchange func()
				if tc.exchange {
					exchange = func() {}
				}
				if _, err := e.Run(context.Background(), exchange, nil); err != nil {
					t.Fatal(err)
				}
			}
			sharedPair = func(kernel.Batch) bool { return false }
			want := mk(1)
			run(want)
			sharedPair = func(kernel.Batch) bool { return true }

			label := tc.name + "/" + kern.Name()
			oracle := mk(1)
			oracle.oracle()
			sameState(t, label+"/oracle", oracle, want)
			for _, workers := range []int{1, 2} {
				e := mk(workers)
				run(e)
				sameState(t, fmt.Sprintf("%s/w%d", label, workers), e, want)
				for _, ph := range []string{diag.PhaseWList, diag.PhaseXList} {
					if got := e.Prof.Flops(ph); got != want.Prof.Flops(ph) || got == 0 {
						t.Fatalf("%s/w%d: %s flops %d, one way %d: flops are counted per entry", label, workers, ph, got, want.Prof.Flops(ph))
					}
				}
				served, oneWay := wxCounts(e)
				if served == 0 {
					t.Fatalf("%s: no W entry is served by X", label)
				}
				if tc.oneWay && oneWay == 0 {
					t.Fatalf("%s: every W entry is served; the split roles must leave some one way", label)
				}
				t.Logf("%s/w%d: %d W entries served by X, %d one way", label, workers, served, oneWay)
			}
		}
	}
}

// countParked sets parkedHeld to count the partials parked until the
// returned function is called; that function restores it and returns the
// count. One worker: no concurrent calls.
func countParked() func() int {
	parks := 0
	parkedHeld = func(delta int) {
		if delta > 0 {
			parks++
		}
	}
	return func() int {
		parkedHeld = nil
		return parks
	}
}

// TestWXStokesRunsOneWay checks that a kernel whose EvalPair shares no work
// leaves W ⟷ X unpaired: a full evaluation parks nothing and W waits on no X.
func TestWXStokesRunsOneWay(t *testing.T) {
	tr := octree.Build(geom.Generate(geom.Ellipsoid, 2500, 42), 25, 20)
	tr.BuildLists(nil)
	e := NewEngine(NewOperators(kernel.Stokes{}, 4, 1e-9), tr)
	copy(e.Density, randDensities(rand.New(rand.NewSource(2)), len(tr.Points), 3))
	stop := countParked()
	e.Evaluate()
	if parks, linked := stop(), wxLinked(e); parks != 0 || linked != 0 {
		t.Fatalf("stokes: %d partials parked, %d X or W entries linked; want W ⟷ X one way", parks, linked)
	}
	if served, oneWay := wxCounts(e); served != 0 || oneWay == 0 {
		t.Fatalf("stokes: %d W entries served, %d one way", served, oneWay)
	}
}

// TestWXSeparateRowsOneWay runs X, D2D and W as three one-row graphs, as
// internal/experiments and the benchmark's layer rows do: they must park
// nothing and leave the state of the same rows run as one paired graph, bit
// for bit.
func TestWXSeparateRowsOneWay(t *testing.T) {
	tr := octree.Build(geom.Generate(geom.Ellipsoid, 2500, 42), 25, 20)
	tr.BuildLists(nil)
	ops := NewOperators(kernel.Laplace{}, 4, 1e-9)
	mk := func() *Engine {
		e := NewEngine(ops, tr)
		rng := rand.New(rand.NewSource(3))
		copy(e.Density, randDensities(rng, len(tr.Points), 1))
		for i := range e.U {
			copy(e.U[i], randDensities(rng, len(e.U[i]), 1))
		}
		return e
	}
	rows := mk()
	stop := countParked()
	rows.XLI()
	linked := wxLinked(rows)
	rows.Downward()
	rows.WLI()
	if parks := stop(); parks != 0 || linked != 0 || wxLinked(rows) != 0 {
		t.Fatalf("separate rows: %d partials parked, %d and %d X or W entries linked; want both rows one way",
			parks, linked, wxLinked(rows))
	}
	graph := mk()
	stop = countParked()
	var l Record
	if err := graph.runRows(context.Background(), pXLI, pWLI+1, nil, &l); err != nil {
		t.Fatal(err)
	}
	parks := stop()
	served, _ := wxCounts(graph)
	if parks == 0 || parks != served {
		t.Fatalf("one graph of X…W: %d partials parked for %d served entries", parks, served)
	}
	sameState(t, "X…W as one graph against three rows", graph, rows)
}

// TestWXParkedPeak measures how many partials W ⟷ X holds parked at once in
// a full evaluation on the paper's ellipsoid at q = 50 — 4k points
// (serve_cycle's cloud) and 30k — at 1 and 2 workers: the memory the route
// rests on. A W task adds its partials once the X tasks of every entry served
// have run, and those follow the V row, which runs a level at a time; the
// bound is 40 % of the served entries. The U row is left unpaired, so that the
// store's one hook counts W ⟷ X alone. Measured: 242 of 989 at 4k and 1 994 of
// 7 504 at 30k at 1 worker (24 % and 27 %), 223–358 and 1 994–2 026 at 2.
func TestWXParkedPeak(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("30k-point evaluations")
	}
	ops := NewOperators(kernel.Laplace{}, 6, 1e-9)
	for _, n := range []int{4000, 30000} {
		tr := octree.Build(geom.Generate(geom.Ellipsoid, n, 1), 50, 20)
		tr.BuildLists(nil)
		for _, workers := range []int{1, 2} {
			e := NewEngineLayout(ops, tr, NewLayout(tr, ops, false))
			e.UseFFTM2L = true
			e.Workers = workers
			copy(e.Density, randDensities(rand.New(rand.NewSource(1)), len(tr.Points), 1))
			unpairU(e)
			var peak int
			held := make(chan int, 1)
			held <- 0
			parkedHeld = func(delta int) {
				n := <-held + delta
				peak = max(peak, n)
				held <- n
			}
			e.Evaluate()
			parkedHeld = nil
			live := <-held
			served, _ := wxCounts(e)
			bytes := 0
			for _, b := range e.store.bufs {
				bytes += 8 * len(b)
			}
			t.Logf("%d points, workers %d: %d leaves, %d W entries served by X, at most %d partials parked (%.1f %%), %d buffers of %d KiB",
				n, workers, len(tr.Leaves), served, peak, 100*float64(peak)/float64(served), len(e.store.bufs), bytes/1024)
			if live != 0 {
				t.Errorf("%d points, workers %d: %d partials still parked after the evaluation", n, workers, live)
			}
			if served == 0 || 10*peak > 4*served {
				t.Errorf("%d points, workers %d: %d partials parked at once, over 40 %% of the %d served entries", n, workers, peak, served)
			}
		}
	}
}
