package kifmm

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"time"

	"kifmm/internal/dtree"
	"kifmm/internal/geom"
	"kifmm/internal/kernel"
	"kifmm/internal/mpi"
	"kifmm/internal/octree"
)

// uliOneWay is the reference the paired U row is checked against: every leaf
// of the row walks U(i) in list order with one EvalPanel call per entry, as
// the row did before it paired mutual leaves.
func uliOneWay(e *Engine) {
	t, L := e.Tree, e.Layout
	sd, td := e.Ops.Kern.SrcDim(), e.Ops.Kern.TrgDim()
	for _, run := range e.work(&phases[pULI]) {
		for _, i := range run {
			n := &t.Nodes[i]
			lo, hi := int(n.PtLo), int(n.PtHi)
			for _, a := range n.U {
				if !e.srcNode(a) {
					continue
				}
				an := &t.Nodes[a]
				slo, shi := int(an.PtLo), int(an.PtHi)
				selfOff := -1
				if a == i {
					selfOff = 0
				}
				e.bk.EvalPanel(L.PX[lo:hi], L.PY[lo:hi], L.PZ[lo:hi], L.PX[slo:shi], L.PY[slo:shi], L.PZ[slo:shi],
					e.Density[slo*sd:shi*sd], e.Potential[lo*td:hi*td], selfOff)
			}
		}
	}
}

// pairCounts counts the U row's entries by their links: served both ways by
// this leaf, taking what another leaf parked, one way.
func pairCounts(e *Engine) (pair, parked, oneWay int) {
	for _, run := range e.work(&phases[pULI]) {
		for _, i := range run {
			for _, l := range firstOf(e.pairs.lists(e.Tree, i)) {
				switch {
				case l >= 0:
					pair++
				case l < -1:
					parked++
				default:
					oneWay++
				}
			}
		}
	}
	return
}

// rankLETs returns the local essential trees of pts split evenly over two
// ranks: Points2Octree with q points a leaf, then BuildLET.
func rankLETs(t testing.TB, pts []geom.Point, q int) []*octree.Tree {
	t.Helper()
	lets := make([]*octree.Tree, 2)
	mpi.Run(2, func(c *mpi.Comm) {
		share := pts[c.Rank()*len(pts)/2 : (c.Rank()+1)*len(pts)/2]
		lets[c.Rank()] = dtree.BuildLET(c, dtree.Points2Octree(c, share, nil, 1, q, 20, nil)).Tree
	})
	return lets
}

// uliTree is one tree TestULIPairsMatchOneWay runs the U row on.
type uliTree struct {
	name  string
	tree  *octree.Tree
	nLead int // > 0: a split-role union tree, its leading nLead points targets
	// oneWay: some entries between leaves with U-row work must run one way —
	// a local essential tree's ghosts have no U-row work, edited lists are
	// not trusted
	oneWay bool
}

// uliTrees are a symmetric Plan's tree, the same with two lists edited out of
// symmetry, a PlanAt union tree whose targets and sources overlap only in
// part (so it has target-only, source-only and mixed leaves), and one rank's
// local essential tree out of two.
func uliTrees(t *testing.T) []uliTree {
	t.Helper()
	sym := octree.Build(geom.Generate(geom.Ellipsoid, 2500, 42), 25, 20)
	sym.BuildLists(nil)

	const nTrg, nSrc = 900, 1300
	var union []geom.Point
	for i, p := range geom.Generate(geom.Uniform, nTrg+nSrc, 43) {
		if i < nTrg { // targets in [0, 0.6)³, sources in [0.35, 1)³
			union = append(union, geom.Point{X: 0.6 * p.X, Y: 0.6 * p.Y, Z: 0.6 * p.Z})
		} else {
			union = append(union, geom.Point{X: 0.35 + 0.65*p.X, Y: 0.35 + 0.65*p.Y, Z: 0.35 + 0.65*p.Z})
		}
	}
	ut := octree.Build(union, 20, 20)
	ut.BuildLists(nil)

	lets := rankLETs(t, geom.Generate(geom.Uniform, 3000, 44), 30)
	// Lists the pairing must not trust: a leaf that names a neighbour which
	// does not name it back, and one that names a neighbour twice.
	edited := octree.Build(geom.Generate(geom.Ellipsoid, 2500, 42), 25, 20)
	edited.BuildLists(nil)
	var cut, doubled int32 = -1, -1
	for _, i := range edited.Leaves {
		if u := edited.Nodes[i].U; len(u) > 2 && edited.Nodes[i].NPoints() > 0 {
			if cut < 0 {
				cut = i
				a := u[0]
				if a == i {
					a = u[1]
				}
				au := edited.Nodes[a].U
				edited.Nodes[a].U = slices.DeleteFunc(slices.Clone(au), func(b int32) bool { return b == i })
			} else if doubled < 0 && !slices.Contains(edited.Nodes[cut].U, i) {
				doubled = i
				edited.Nodes[i].U = append(slices.Clone(u), u[1])
			}
		}
	}
	return []uliTree{
		{name: "plan", tree: sym},
		{name: "edited", tree: edited, oneWay: true},
		{name: "planat", tree: ut, nLead: nTrg},
		{name: "let", tree: lets[0], oneWay: true},
	}
}

// pairEveryKernel has the engine pair every kernel's U row for the rest of
// the test, Stokes' too — whose EvalPair is two EvalPanel calls, so the row
// does not pair it otherwise — to check the parking with three target
// components.
func pairEveryKernel(t *testing.T) {
	shared := sharedPair
	sharedPair = func(kernel.Batch) bool { return true }
	t.Cleanup(func() { sharedPair = shared })
}

// TestULIStokesRunsOneWay checks that a kernel whose EvalPair shares no work
// leaves the U row unpaired: no entry parks, no U task waits on another.
func TestULIStokesRunsOneWay(t *testing.T) {
	tr := octree.Build(geom.Generate(geom.Ellipsoid, 2500, 42), 25, 20)
	tr.BuildLists(nil)
	e := NewEngine(NewOperators(kernel.Stokes{}, 4, 1e-9), tr)
	e.pairRows(pULI, pULI+1)
	if pair, parked, _ := pairCounts(e); pair != 0 || parked != 0 {
		t.Fatalf("stokes: %d entries run EvalPair, %d parked for; want the row one way", pair, parked)
	}
}

// TestULIPairsMatchOneWay runs the U row alone — paired, as a task graph at 1,
// 2 and 4 workers — and checks the potentials against the one-way walk bit
// for bit, from potentials that already hold earlier rows' sums (so the order
// each target's partials arrive in matters), for every kernel, on each of
// uliTrees.
func TestULIPairsMatchOneWay(t *testing.T) {
	pairEveryKernel(t)
	kerns := []kernel.Kernel{kernel.Laplace{}, kernel.Stokes{}, kernel.Yukawa{Lambda: 5}}
	for _, tc := range uliTrees(t) {
		for _, kern := range kerns {
			ops := NewOperators(kern, 4, 1e-9)
			sd, td := kern.SrcDim(), kern.TrgDim()
			mk := func(workers int) *Engine {
				e := NewEngine(ops, tc.tree)
				e.Workers = workers
				rng := rand.New(rand.NewSource(11))
				if tc.nLead > 0 {
					e.SetSplitRoles(tc.nLead)
					e.SetDensitiesMasked(randDensities(rng, len(tc.tree.Points)-tc.nLead, sd), tc.nLead)
				} else {
					copy(e.Density, randDensities(rng, len(tc.tree.Points), sd))
				}
				copy(e.Potential, randDensities(rng, len(tc.tree.Points), td))
				return e
			}
			want := mk(1)
			uliOneWay(want)
			for _, workers := range graphWorkers {
				label := fmt.Sprintf("%s/%s/w%d", tc.name, kern.Name(), workers)
				e := mk(workers)
				e.ULI()
				bitIdentical(t, label, e.Potential, want.Potential)
				pair, parked, oneWay := pairCounts(e)
				if pair == 0 || pair != parked {
					t.Fatalf("%s: %d entries run EvalPair, %d parked for: the row must pair, one to one", label, pair, parked)
				}
				if (tc.nLead > 0 || tc.oneWay) && oneWay <= countSelf(e) {
					t.Fatalf("%s: only the %d self entries run one way; the tree's split roles, ghosts or edits must leave more", label, oneWay)
				}
			}
		}
	}
}

// countSelf counts the U row's self entries.
func countSelf(e *Engine) int {
	n := 0
	for _, run := range e.work(&phases[pULI]) {
		for _, i := range run {
			for _, a := range e.Tree.Nodes[i].U {
				if a == i {
					n++
				}
			}
		}
	}
	return n
}

// TestULIFailedRowReclaims stops the U row part way — a cancelled context,
// and a body that panics — with partials parked, then runs the engine again:
// the next run reclaims every buffer and the potentials are a fresh engine's,
// bit for bit.
func TestULIFailedRowReclaims(t *testing.T) {
	tr := octree.Build(geom.Generate(geom.Uniform, 3000, 45), 20, 20)
	tr.BuildLists(nil)
	ops := NewOperators(kernel.Laplace{}, 4, 1e-9)
	den := randDensities(rand.New(rand.NewSource(3)), len(tr.Points), 1)
	mk := func() *Engine {
		e := NewEngine(ops, tr)
		e.UseFFTM2L = true
		copy(e.Density, den)
		return e
	}
	want := mk()
	if _, err := want.Run(context.Background(), nil, nil); err != nil {
		t.Fatal(err)
	}
	for _, how := range []string{"cancel", "panic"} {
		e := mk()
		ctx, cancel := context.WithCancel(context.Background())
		live, stopped := 0, 0
		parkedHeld = func(delta int) { // one worker: no concurrent calls
			live += delta
			if live == 5 && stopped == 0 {
				stopped = live
				if how == "panic" {
					panic("stop the row")
				}
				cancel()
				// The scheduler learns of the cancellation on a goroutine
				// of its own (context.AfterFunc); on a loaded machine the
				// row could finish first. Give it the time to land.
				time.Sleep(100 * time.Millisecond)
			}
		}
		_, err := e.Run(ctx, nil, nil)
		parkedHeld = nil
		cancel()
		if err == nil || (how == "cancel" && !errors.Is(err, context.Canceled)) ||
			(how == "panic" && !strings.Contains(err.Error(), "stop the row")) {
			t.Fatalf("%s: the run returned %v", how, err)
		}
		if live == 0 {
			t.Fatalf("%s: no partial was left parked; the test stopped the row too late", how)
		}
		e.Reset()
		if _, err := e.Run(context.Background(), nil, nil); err != nil {
			t.Fatal(err)
		}
		free := 0
		for _, f := range e.store.free {
			free += len(f)
		}
		if free != len(e.store.bufs) {
			t.Errorf("%s: %d of %d buffers free after a full run", how, free, len(e.store.bufs))
		}
		bitIdentical(t, how+": the run after a stopped one", e.Potential, want.Potential)
		t.Logf("%s: stopped with %d partials parked", how, live)
	}
}

// uniformTrees are the 100k-point uniform cloud's trees at q = 400 and
// q = 50: the near_uniform and far_uniform benchmarks' trees.
func uniformTrees() map[int]*octree.Tree {
	trees := map[int]*octree.Tree{}
	for _, q := range []int{400, 50} {
		tr := octree.Build(geom.Generate(geom.Uniform, 100000, 1), q, 20)
		tr.BuildLists(nil)
		trees[q] = tr
	}
	return trees
}

// uliChain returns the U row's longest chain of tasks that wait on each
// other, weighted by their kernel work, and the row's whole kernel work: an
// entry a leaf serves both ways or runs one way weighs its two panels'
// point counts multiplied, a parked partial nothing.
func uliChain(e *Engine) (chain, total float64) {
	t := e.Tree
	// done[i] is when leaf i's task can finish, at the earliest; the row's
	// order has every task after those it waits on.
	done := make([]float64, len(t.Nodes))
	for _, i := range e.pairs.order {
		n := &t.Nodes[i]
		links, _, _ := e.pairs.lists(t, i)
		var start, work float64
		for k, a := range n.U {
			switch {
			case links[k] < -1:
				start = max(start, done[a])
			case e.srcNode(a):
				work += float64(n.NPoints() * t.Nodes[a].NPoints())
			}
		}
		done[i] = start + work
		chain = max(chain, done[i])
		total += work
	}
	return chain, total
}

// TestULIChainBound pins the U row's longest chain of waiting tasks, as a
// share of the row's kernel work, on the near_uniform and far_uniform trees:
// the row's parallelism rests on it. Ranking the paired leaves in Morton
// order alone chained 54 % of the work at q = 400 (at most 1.9× parallel at
// any worker count) and 31 % at q = 50. Measured with the whole row ranked by
// colour: 2.18 % at q = 400 (46×) and 0.31 % at q = 50 (320×); the budget is
// 4 % and 0.5 %. Every mutual pair is served, so only the self entries run one
// way, and the pairing saves 48 % of the row's panels on both trees (64-leaf
// chunks, whose seams ran one way, saved 35 % and 31 %).
func TestULIChainBound(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("100k-point trees")
	}
	ops := NewOperators(kernel.Laplace{}, 4, 1e-9)
	budget := map[int]float64{400: 0.04, 50: 0.005}
	for q, tr := range uniformTrees() {
		e := NewEngineLayout(ops, tr, NewLayout(tr, ops, false))
		e.pairRows(pULI, pULI+1)
		chain, total := uliChain(e)
		pair, _, oneWay := pairCounts(e)
		saved := float64(pair) / float64(2*pair+oneWay)
		t.Logf("q = %d: %d leaves, longest chain %.2f %% of the row's work (%.0f× parallel), %d entries served both ways, %d one way: %.0f %% of the panels saved",
			q, len(tr.Leaves), 100*chain/total, total/chain, pair, oneWay, 100*saved)
		if chain > budget[q]*total {
			t.Errorf("q = %d: the longest chain is %.2f %% of the U row's work, over %.1f %%", q, 100*chain/total, 100*budget[q])
		}
		if self := countSelf(e); oneWay != self {
			t.Errorf("q = %d: %d entries run one way, %d of them self entries: every pair between distinct leaves must be served", q, oneWay, self)
		}
	}
}

// TestULIParkedPeak pins how many partials the U row holds parked at once,
// and the bytes its store grows to, on the near_uniform and far_uniform trees
// at 1 and 2 workers: the row alone, and in a full evaluation, whose peak
// sizes an engine's store. What the pairing's memory rests on. With every
// mutual pair served, the partials parked are the pairs between the leaves
// whose tasks have run and those still to run. Measured (the row alone / a
// full run): at 1 worker 1 188 / 941 partials (1.9 / 1.5 MiB) at q = 400 and
// 4 038 / 3 914 (0.9 MiB) at q = 50; at 2 workers, which vary run to run,
// up to 1 258 / 1 817 (2.9 MiB) and 4 303 / 6 911 (1.5 MiB). The budgets
// leave about a tenth above the 1-worker peaks and a quarter above the
// 2-worker ones. (64-leaf chunks with their seams run one way parked at most
// 252 partials at 1 worker and 502 at 2; the whole row in colour order with
// the even parities first, 1 974 and 8 842 in a full run at 1 worker.)
func TestULIParkedPeak(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("100k-point U rows")
	}
	ops := NewOperators(kernel.Laplace{}, 4, 1e-9)
	// budget[q][workers-1] is the most partials parked, and the most bytes
	// of buffers the store holds, the row alone or in a full run.
	type peak struct{ parts, bytes int }
	budget := map[int][2]peak{
		400: {{1300, 2200 << 10}, {2200, 3500 << 10}},
		50:  {{4400, 1100 << 10}, {8000, 2000 << 10}},
	}
	for q, tr := range uniformTrees() {
		layout := NewLayout(tr, ops, false)
		for _, workers := range []int{1, 2} {
			for _, full := range []bool{false, true} {
				e := NewEngineLayout(ops, tr, layout)
				e.Workers = workers
				e.UseFFTM2L = true
				copy(e.Density, randDensities(rand.New(rand.NewSource(1)), len(tr.Points), 1))
				peak := 0
				held := make(chan int, 1)
				held <- 0
				parkedHeld = func(delta int) {
					n := <-held + delta
					peak = max(peak, n)
					held <- n
				}
				scope := "the row alone"
				if full {
					scope = "a full run"
					if _, err := e.Run(context.Background(), nil, nil); err != nil {
						t.Fatal(err)
					}
				} else {
					e.ULI()
				}
				parkedHeld = nil
				bytes := 0
				for _, b := range e.store.bufs {
					bytes += 8 * len(b)
				}
				label := fmt.Sprintf("q = %d, workers %d, %s", q, workers, scope)
				t.Logf("%s: at most %d partials parked, %d buffers of %d KiB", label, peak, len(e.store.bufs), bytes>>10)
				if live := <-held; live != 0 {
					t.Errorf("%s: %d partials still parked after the run", label, live)
				}
				if b := budget[q][workers-1]; peak > b.parts || bytes > b.bytes {
					t.Errorf("%s: %d partials parked at once in %d bytes of buffers, over %d partials or %d bytes",
						label, peak, bytes, b.parts, b.bytes)
				}
			}
		}
	}
}

// firstOf returns a node's U-list links out of its three lists'.
func firstOf(u, _, _ []int32) []int32 { return u }
