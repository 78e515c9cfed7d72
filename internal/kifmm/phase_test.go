package kifmm

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"testing"

	"kifmm/internal/diag"
	"kifmm/internal/geom"
	"kifmm/internal/kernel"
	"kifmm/internal/octree"
	"kifmm/internal/sched"
)

// TestPhaseTable pins the one description of a phase the task graph and the
// test oracle read.
func TestPhaseTable(t *testing.T) {
	// (a) Algorithm 1's order, under the trace names service/trace_test.go
	// reads and the diag phases /metrics reports.
	want := []struct{ name, diag string }{
		{"S2U", diag.PhaseUpward}, {"U2U", diag.PhaseUpward}, {"V", diag.PhaseVList},
		{"X", diag.PhaseXList}, {"D2D", diag.PhaseDownward}, {"W", diag.PhaseWList},
		{"D2T", diag.PhaseDownward}, {"U", diag.PhaseUList},
	}
	if len(phases) != len(want) {
		t.Fatalf("%d rows, want %d", len(phases), len(want))
	}
	for pi, w := range want {
		if p := &phases[pi]; p.name != w.name || p.diag != w.diag {
			t.Errorf("row %d is %s/%s, want %s/%s", pi, p.name, p.diag, w.name, w.diag)
		}
	}

	const n, nLead = 600, 200
	pts := geom.Generate(geom.Ellipsoid, n, 42)
	tr := octree.Build(pts, 10, 20)
	tr.BuildLists(nil)
	for _, kern := range []kernel.Kernel{kernel.Laplace{}, kernel.Stokes{}, kernel.Yukawa{Lambda: 5}} {
		ops := NewOperators(kern, 4, 1e-9)
		den := randDensities(rand.New(rand.NewSource(7)), n, kern.SrcDim())
		for _, lead := range []int{0, nLead} {
			for _, useFFT := range []bool{false, true} {
				mk := func(workers int) *Engine {
					e := NewEngine(ops, tr)
					e.UseFFTM2L, e.Workers, e.Prof = useFFT, workers, diag.NewProfile()
					e.SetSplitRoles(lead)
					e.SetDensitiesMasked(den[lead*kern.SrcDim():], lead)
					return e
				}
				t.Run(fmt.Sprintf("%s/lead%d/fft=%v", kern.Name(), lead, useFFT), func(t *testing.T) {
					graph := mk(2)
					trace := sched.NewTrace()
					st, err := graph.EvaluateDAG(trace)
					if err != nil {
						t.Fatal(err)
					}

					// (b) One task per work entry, named after its row.
					var doc struct {
						TraceEvents []struct{ Name string }
					}
					if err := json.Unmarshal(trace.JSON(), &doc); err != nil {
						t.Fatal(err)
					}
					ran := map[string]int{}
					for _, ev := range doc.TraceEvents {
						ran[ev.Name]++
					}
					expect := map[string]int{}
					for pi := range phases {
						p := &phases[pi]
						var work []int32
						for _, run := range graph.work(p) {
							work = append(work, run...)
						}
						if pi != pVLI || !useFFT {
							expect[p.name] = len(work)
							continue
						}
						groups, srcs := map[int32]bool{}, map[int32]bool{}
						for _, i := range work {
							groups[tr.Nodes[i].Parent] = true
							for _, a := range tr.Nodes[i].V {
								if graph.srcNode(a) {
									srcs[a] = true
								}
							}
						}
						expect["Vfft"], expect["spec"] = len(groups), len(srcs)
					}
					// The body-less "Vdone" ordering tasks, one per group, run
					// but leave no trace event.
					total, untraced := 0, 0
					if useFFT {
						untraced = expect["Vfft"]
					}
					for name, k := range expect {
						if k == 0 && lead == 0 {
							t.Errorf("no %s work on the symmetric tree: the case checks nothing", name)
						}
						if ran[name] != k {
							t.Errorf("%d %s tasks ran, work has %d", ran[name], name, k)
						}
						total += k
					}
					if int64(total+untraced) != st.Tasks || len(doc.TraceEvents) != total {
						t.Errorf("work sums to %d tasks (+%d ordering), graph ran %d, trace has %d",
							total, untraced, st.Tasks, len(doc.TraceEvents))
					}

					// (c) and the flops half of (b): the sequential oracle against
					// the graph at 1, 2 and 4 workers.
					oracle := mk(1)
					oracle.oracle()
					for _, workers := range graphWorkers {
						g := graph
						if workers != 2 {
							g = mk(workers)
							if _, err := g.EvaluateDAG(nil); err != nil {
								t.Fatal(err)
							}
						}
						bitIdentical(t, fmt.Sprintf("graph w%d vs oracle", workers), g.Potential, oracle.Potential)
						for _, name := range []string{diag.PhaseUpward, diag.PhaseVList, diag.PhaseXList, diag.PhaseWList, diag.PhaseDownward, diag.PhaseUList} {
							if o, gf := oracle.Prof.Flops(name), g.Prof.Flops(name); o != gf {
								t.Errorf("%s flops: oracle %d, graph w%d %d", name, o, workers, gf)
							}
						}
					}
				})
			}
		}
	}
}
