package kifmm

import (
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

// TestRunSelectsDriver pins the one driver-selection rule, Engine.Run's: an
// exchange step runs the barrier phases (and refuses a trace), a trace or the
// forced-graph override the task graph, the forced-barrier override the
// barrier phases, and otherwise the worker count decides. Every row times
// PhaseTotalEval once, counts one graph iff it ran one, and yields the same
// bits.
func TestRunSelectsDriver(t *testing.T) {
	pts := geom.Generate(geom.Ellipsoid, 900, 42)
	tr := octree.Build(pts, 12, 20)
	tr.BuildLists(nil)
	ops := NewOperators(kernel.Laplace{}, 4, 1e-9)
	den := randDensities(rand.New(rand.NewSource(7)), len(pts), 1)
	layout := NewLayout(tr, ops, false)

	var want []float64
	for _, workers := range []int{1, 2} {
		for _, force := range []int8{0, -1, 1} { // by workers, barrier, task graph
			for _, traced := range []bool{false, true} {
				for _, exchanged := range []bool{false, true} {
					name := fmt.Sprintf("workers%d/force%d/trace=%v/exchange=%v", workers, force, traced, exchanged)
					e := EngineSpec{Ops: ops, Workers: workers, force: force}.NewEngine(tr, layout)
					e.Prof = diag.NewProfile()
					e.SetPointDensities(den)
					var trace *sched.Trace
					if traced {
						trace = sched.NewTrace()
					}
					var exchange func()
					steps := 0
					if exchanged {
						exchange = func() { steps++ }
					}
					t0 := time.Now()
					stats, err := e.Run(exchange, trace)
					wall := time.Since(t0)
					if exchanged && traced {
						if err == nil {
							t.Fatalf("%s: a traced exchange was accepted", name)
						}
						continue
					}
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					graph := !exchanged && (traced || force > 0 || (force == 0 && workers > 1))
					if got := stats.Tasks > 0; got != graph {
						t.Errorf("%s: ran the task graph = %v, want %v", name, got, graph)
					}
					wantGraphs := int64(0)
					if graph {
						wantGraphs = 1
					}
					if got := e.Prof.Counter(diag.CounterSchedGraphs); got != wantGraphs {
						t.Errorf("%s: %d graphs counted, want %d", name, got, wantGraphs)
					}
					if exchanged && steps != 1 {
						t.Errorf("%s: exchange ran %d times", name, steps)
					}
					// One timer is at most the wall time around Run; a second,
					// nested one would add up to nearly twice it.
					if tot := e.Prof.Time(diag.PhaseTotalEval); tot <= 0 || tot > wall {
						t.Errorf("%s: PhaseTotalEval %v for a %v run", name, tot, wall)
					}
					if want == nil {
						want = e.PointPotentials()
					}
					bitIdentical(t, name, e.PointPotentials(), want)
				}
			}
		}
	}
}
