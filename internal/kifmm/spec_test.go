package kifmm

import (
	"context"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"kifmm/internal/diag"
	"kifmm/internal/geom"
	"kifmm/internal/kernel"
	"kifmm/internal/octree"
	"kifmm/internal/sched"
)

// TestRunSelectsDriver pins Engine.Run's one rule: whatever it is given, it
// runs the phase table as task graphs — one graph without an exchange step,
// and with one a graph of the upward pass, the exchange (once, after every U
// is final and before any potential is written), then a graph of the other
// rows. A trace is accepted either way and records the graphs' tasks. Every row
// times PhaseTotalEval once, counts the graphs it ran, sums its phase rows'
// task times within Workers × Total eval and yields the same bits.
func TestRunSelectsDriver(t *testing.T) {
	pts := geom.Generate(geom.Ellipsoid, 900, 42)
	tr := octree.Build(pts, 12, 20)
	tr.BuildLists(nil)
	ops := NewOperators(kernel.Laplace{}, 4, 1e-9)
	den := randDensities(rand.New(rand.NewSource(7)), len(pts), 1)
	layout := NewLayout(tr, ops, false)

	var want []float64
	for _, workers := range []int{1, 2} {
		for _, traced := range []bool{false, true} {
			for _, exchanged := range []bool{false, true} {
				name := fmt.Sprintf("workers%d/trace=%v/exchange=%v", workers, traced, exchanged)
				e := EngineSpec{Ops: ops, Workers: workers}.NewEngine(tr, layout)
				e.Prof = diag.NewProfile()
				e.SetPointDensities(den)
				var trace *sched.Trace
				if traced {
					trace = sched.NewTrace()
				}
				var exchange func()
				steps := 0
				if exchanged {
					exchange = func() {
						steps++
						if e.U[0][0] == 0 {
							t.Errorf("%s: exchange ran before the root's U was final", name)
						}
						for _, p := range e.Potential {
							if p != 0 {
								t.Fatalf("%s: exchange ran after a potential was written", name)
							}
						}
					}
				}
				t0 := time.Now()
				stats, err := e.Run(context.Background(), exchange, trace)
				wall := time.Since(t0)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if stats.Tasks == 0 {
					t.Errorf("%s: ran no tasks", name)
				}
				if traced && (trace.Events() == 0 || int64(trace.Events()) > stats.Tasks) {
					t.Errorf("%s: trace has %d events for %d tasks", name, trace.Events(), stats.Tasks)
				}
				wantGraphs := int64(1)
				if exchanged {
					wantGraphs = 2
				}
				if got := e.Prof.Counter(diag.CounterSchedGraphs); got != wantGraphs {
					t.Errorf("%s: %d graphs counted, want %d", name, got, wantGraphs)
				}
				if got := e.Prof.Counter(diag.CounterSchedTasks); got != stats.Tasks {
					t.Errorf("%s: %d tasks counted, stats have %d", name, got, stats.Tasks)
				}
				if exchanged && steps != 1 {
					t.Errorf("%s: exchange ran %d times", name, steps)
				}
				// One timer is at most the wall time around Run; a second,
				// nested one would add up to nearly twice it.
				tot := e.Prof.Time(diag.PhaseTotalEval)
				if tot <= 0 || tot > wall {
					t.Errorf("%s: PhaseTotalEval %v for a %v run", name, tot, wall)
				}
				// The ledger: row times are task times summed across the
				// workers, so they fit in Workers × Total eval.
				var rows time.Duration
				for _, ph := range []string{diag.PhaseUpward, diag.PhaseVList, diag.PhaseXList, diag.PhaseDownward, diag.PhaseWList, diag.PhaseUList} {
					rows += e.Prof.Time(ph)
				}
				if rows <= 0 || rows > time.Duration(workers)*tot {
					t.Errorf("%s: row times sum to %v, Total eval %v at %d workers", name, rows, tot, workers)
				}
				if want == nil {
					want = e.PointPotentials()
				}
				bitIdentical(t, name, e.PointPotentials(), want)
			}
		}
	}
}

// TestPoolMemoryBytes pins EnginePool.MemoryBytes, the one byte formula
// behind Plan.MemoryBytes, single-engine and per shard rank: 160 B a node
// (an octree.Node on a 64-bit platform), 4 B a list entry, 24 B a point and
// 8 more where the tree keeps a permutation (Build's does, a rank's local
// essential tree from Assemble does not), one engine's per-node surface
// vectors and per-point densities and potentials, the mirror-free layout
// (24 B a point, 25 B a node), the masks and the compiled graphs. That is
// the estimate the layout's per-node half-sides (8 B a node), which nothing
// read, used to take part in, less those 8 B a node.
func TestPoolMemoryBytes(t *testing.T) {
	built := octree.Build(geom.Generate(geom.Ellipsoid, 3000, 7), 25, 20)
	built.BuildLists(nil)
	lets := rankLETs(t, geom.Generate(geom.Ellipsoid, 3000, 8), 25)
	if lets[0].Perm != nil {
		t.Fatal("an assembled tree has a permutation: the case checks nothing")
	}
	ops := NewOperators(kernel.Laplace{}, 4, 1e-9)
	for _, tc := range []struct {
		name     string
		tr       *octree.Tree
		permSize int64
	}{{"built", built, 8}, {"assembled", lets[0], 0}} {
		tr := tc.tr
		for _, nLead := range []int{0, 1000} {
			pool := EngineSpec{Ops: ops, Workers: 1}.NewPool(tr, nLead)
			pool.Compile(false)
			var lists int64
			for i := range tr.Nodes {
				n := &tr.Nodes[i]
				lists += 4 * int64(len(n.U)+len(n.V)+len(n.W)+len(n.X))
			}
			nodes, pts := int64(len(tr.Nodes)), int64(len(tr.Points))
			withHalf := nodes*160 + lists + pts*(24+tc.permSize) +
				nodes*int64(2*ops.UpwardLen()+ops.CheckLen())*8 + pts*2*8 +
				pts*24 + nodes*(4*8+1) +
				int64(len(pool.src)+len(pool.trg)) + pool.graphs.memoryBytes()
			if got, want := pool.MemoryBytes(), withHalf-8*nodes; got != want {
				t.Errorf("%s/nLead %d: MemoryBytes %d, want %d (%d less 8 B for each of %d nodes)", tc.name, nLead, got, want, withHalf, nodes)
			}
		}
	}
}
