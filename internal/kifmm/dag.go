package kifmm

import (
	"sync/atomic"

	"kifmm/internal/diag"
	"kifmm/internal/octree"
	"kifmm/internal/sched"
)

// EvaluateDAG runs the same computation as Evaluate re-expressed as a
// dependency task graph on the internal/sched runtime: per-octant tasks
// gated only on the data they actually read, instead of eight
// bulk-synchronous phases separated by global barriers.
//
// Dependency structure (one task per octant per phase — per entry of the
// phase table's work — named after the row; the rules are buildDAG's after):
//
//	S2U(leaf)                         — no deps
//	U2U(i)                            — after U of every child (tree parenthood)
//	spec(a)  [FFT mode]               — after U of source a (forward FFT)
//	V(i)     [dense mode]             — after U of every source in i's V list
//	Vfft(group) [FFT mode]            — after spec of every source in the V
//	                                    lists of the group's siblings
//	X(i)                              — after V(i) / Vfft(group of i)  (DChk write order)
//	D2D(i)                            — after D2D(parent), X(i)/V
//	W(leaf)                           — after U of every source in the W list
//	D2T(leaf)                         — after D2D(leaf), W(leaf)  (potential write order)
//	U(leaf)                           — after D2T(leaf)/W(leaf)   (potential write order)
//
// The per-octant bodies are the same functions the barrier path runs, the
// intra-octant chains (V→X→D2D, W→D2T→U) reproduce the barrier path's
// accumulation order into DChk and Potential, and every source list is
// walked in list order — which is why the result is bit-identical to
// Evaluate, not merely close. Nothing but the dependencies orders the tasks:
// a worker chases the chain it is on (internal/sched).
//
// A nil trace skips event capture. The returned stats feed internal/diag
// and the /metrics endpoint. The only error source is a panicking task
// (the scheduler fails the graph instead of deadlocking).
func (e *Engine) EvaluateDAG(trace *sched.Trace) (sched.Stats, error) {
	defer e.timed(diag.PhaseTotalEval)()
	e.ensureScratch(e.dagWorkers())
	g := e.buildDAG()
	stats, err := g.Run(sched.Options{Workers: e.Workers, Trace: trace})
	e.flushFlops()
	return stats, err
}

// buildDAG assembles the task graph for one evaluation, a row of the phase
// table at a time: one task per entry of the row's work, then what each of
// them waits for. A task wraps the row's body with the phase timer and the
// executing worker's scratch (the scheduler guarantees worker indices are
// exclusive, so e.scratch[w] is owned for the duration of the task). In the
// barrier path each phase is timed once around its loop; here each task adds
// its own duration, so graph phase times aggregate CPU time across workers
// rather than phase wall time (flop counts are identical in both paths).
// Construction is deterministic (table order, then work order), which keeps
// task IDs stable across runs of the same plan.
func (e *Engine) buildDAG() *sched.Graph {
	t := e.Tree
	g := sched.NewGraph()
	// task[p][i] is octant i's task of row p, NoTask where it has no work.
	// S2U (leaves) and U2U (internal nodes) share a slice: either one makes
	// e.U[i] final, which is all a reader of U waits for.
	var task [len(phases)][]sched.TaskID
	for pi := range task {
		if pi == pU2U {
			task[pi] = task[pS2U]
			continue
		}
		task[pi] = noTasks(len(t.Nodes))
	}
	u, v, x, d, w, d2t := task[pS2U], task[pVLI], task[pXLI], task[pD2D], task[pWLI], task[pD2T]

	dep := func(pred, succ sched.TaskID) {
		if pred != sched.NoTask {
			g.Dep(pred, succ)
		}
	}
	// after declares what octant i's task of row pi waits for.
	after := func(pi int, i int32, id sched.TaskID) {
		n := &t.Nodes[i]
		switch pi {
		case pU2U: // finest level first falls out of tree parenthood
			for _, cj := range n.Children {
				if cj != octree.NoNode {
					dep(u[cj], id)
				}
			}
		case pVLI: // exactly the sources it reads
			for _, a := range n.V {
				dep(u[a], id)
			}
		case pXLI: // reads source points only; DChk accumulation order
			dep(v[i], id)
		case pD2D: // the octant's last DChk contribution, and its parent
			dep(firstTask(x[i], v[i]), id)
			if n.Parent != octree.NoNode {
				dep(d[n.Parent], id)
			}
		case pWLI:
			for _, a := range n.W {
				dep(u[a], id)
			}
		case pD2T: // Potential accumulation order: W, D2T, U
			dep(d[i], id)
			dep(w[i], id)
		case pULI:
			dep(firstTask(d2t[i], w[i]), id)
		}
	}

	for pi := range phases {
		p := &phases[pi]
		runs := e.work(p)
		if pi == pVLI && e.UseFFTM2L {
			e.buildVFFT(g, runs, u, v)
			continue
		}
		for _, run := range runs {
			for _, i := range run {
				task[pi][i] = g.Add(p.name, func(worker int) {
					stop := e.timed(p.diag)
					p.body(e, i, e.scratch[worker])
					stop()
				})
			}
		}
		for _, run := range runs {
			for _, i := range run {
				after(pi, i, task[pi][i])
			}
		}
	}
	return g
}

// noTasks returns n task slots, all empty.
func noTasks(n int) []sched.TaskID {
	s := make([]sched.TaskID, n)
	for i := range s {
		s[i] = sched.NoTask
	}
	return s
}

// firstTask returns a, or b where the octant has no task a.
func firstTask(a, b sched.TaskID) sched.TaskID {
	if a != sched.NoTask {
		return a
	}
	return b
}

// buildVFFT adds the FFT-diagonalized V-list subgraph for the V row's work
// (levels): one forward-FFT ("spec") task per referenced source octant and one
// task per sibling group — the children of one parent that are in the work —
// running the same group body as the barrier pass (vliFFTGroup); vTask of
// every member is the group's task. Only the spectrum lifetime differs:
// spectra are reference-counted and released as their last consumer finishes,
// which bounds the live-spectrum footprint without a level barrier.
func (e *Engine) buildVFFT(g *sched.Graph, levels [][]int32, uTask, vTask []sched.TaskID) {
	t := e.Tree
	f := e.Ops.FFT()
	nn := len(t.Nodes)
	spec := make([][]float64, nn)
	refs := make([]int32, nn)
	specTask := noTasks(nn)

	isTrg := make([]bool, nn)
	nTrg := 0
	for _, level := range levels {
		for _, i := range level {
			isTrg[i] = true
			nTrg++
			for _, a := range t.Nodes[i].V {
				if !e.srcNode(a) {
					continue
				}
				refs[a]++
				if specTask[a] == sched.NoTask {
					specTask[a] = g.Add("spec", func(w int) {
						stop := e.timed(diag.PhaseVList)
						sp := make([]float64, f.SpecLen())
						f.SourceSpectrumInto(e.U[a], sp, e.scratch[w].grid(f.GridLen()))
						spec[a] = sp
						stop()
					})
					if uTask[a] != sched.NoTask {
						g.Dep(uTask[a], specTask[a])
					}
				}
			}
		}
	}
	tables := vTables{f: f, workers: e.Workers}
	members := make([]int32, 0, nTrg) // every group's targets, back to back
	// gated[a] is the last group task given an edge from spec(a): siblings
	// share most of their sources, and one edge per (source, group) is enough.
	gated := noTasks(nn)
	for p := 0; p < nn; p++ {
		if t.Nodes[p].IsLeaf {
			continue
		}
		lo := len(members)
		for _, c := range t.Nodes[p].Children {
			if c != octree.NoNode && isTrg[c] {
				members = append(members, c)
			}
		}
		grp := members[lo:]
		if len(grp) == 0 {
			continue
		}
		tb := tables.at(t.Nodes[grp[0]].Key.Level())
		task := g.Add("Vfft", func(w int) {
			stop := e.timed(diag.PhaseVList)
			e.vliFFTGroup(grp, f, tb, spec, e.scratch[w])
			// Release mirrors the ref counting above exactly (one count per
			// mask-selected V entry); the atomic decrement orders the free
			// after every other consumer's reads.
			for _, i := range grp {
				for _, a := range t.Nodes[i].V {
					if e.srcNode(a) && atomic.AddInt32(&refs[a], -1) == 0 {
						spec[a] = nil
					}
				}
			}
			stop()
		})
		for _, i := range grp {
			vTask[i] = task
			for _, a := range t.Nodes[i].V {
				if e.srcNode(a) && gated[a] != task {
					gated[a] = task
					g.Dep(specTask[a], task)
				}
			}
		}
	}
}
