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
// times PhaseTotalEval once, counts the graphs it ran and yields the same
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
