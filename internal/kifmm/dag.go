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
// Dependency structure (one task per octant per phase, omitted when the
// octant has no work in that phase):
//
//	S2U(leaf)                         — no deps
//	U2U(i)                            — after U of every child (tree parenthood)
//	spec(a)  [FFT mode]               — after U of source a (forward FFT)
//	V(i)     [dense mode]             — after U of every source in i's V list
//	V(group) [FFT mode]               — after spec of every source in the V
//	                                    lists of the group's siblings
//	X(i)                              — after V(i) / V(group of i)  (DChk write order)
//	D2D(i)                            — after D2D(parent), X(i)/V
//	W(leaf)                           — after U of every source in the W list
//	D2T(leaf)                         — after D2D(leaf), W(leaf)  (potential write order)
//	U(leaf)                           — after D2T(leaf)/W(leaf)   (potential write order)
//
// The per-octant bodies are the same functions the barrier path runs, the
// intra-octant chains (V→X→D2D, W→D2T→U) reproduce the barrier path's
// accumulation order into DChk and Potential, and every source list is
// walked in list order — which is why the result is bit-identical to
// Evaluate, not merely close. Priorities implement critical-path-first
// scheduling: the upward chain is critical, V-list and the downward chain
// high, and the independent U/W/X direct sums fill in around them.
//
// A nil trace skips event capture. The returned stats feed internal/diag
// and the /metrics endpoint. The only error source is a panicking task
// (the scheduler fails the graph instead of deadlocking).
func (e *Engine) EvaluateDAG(trace *sched.Trace) (sched.Stats, error) {
	defer e.timed(diag.PhaseTotalEval)()
	e.ensureScratch(e.dagWorkers())
	if e.bk32 != nil {
		// Refresh the float32 density mirror once up front: the DAG tasks
		// invoke the per-octant bodies directly, without the barrier-path
		// phase entrypoints that normally do this.
		e.Den32()
	}
	g := e.buildDAG()
	stats, err := g.Run(sched.Options{Workers: e.Workers, Trace: trace})
	e.flushFlops()
	return stats, err
}

// task wraps a per-octant body with the phase timer and the executing
// worker's scratch (the scheduler guarantees worker indices are exclusive,
// so e.scratch[w] is owned for the duration of the task). In the barrier
// path each phase is timed once around its par.For; here each task adds its
// own duration, so DAG phase times aggregate CPU time across workers rather
// than phase wall time (flop counts are identical in both paths).
func dagTask(g *sched.Graph, e *Engine, name string, pri sched.Priority, phase string, fn func(int32, *evalScratch), i int32) sched.TaskID {
	return g.AddW(name, pri, func(w int) {
		stop := e.timed(phase)
		fn(i, e.scratch[w])
		stop()
	})
}

// buildDAG assembles the task graph for one evaluation. Graph construction
// is deterministic (node-index order throughout), which keeps task IDs
// stable across runs of the same plan.
func (e *Engine) buildDAG() *sched.Graph {
	t := e.Tree
	g := sched.NewGraph()
	nn := len(t.Nodes)

	noTasks := func() []sched.TaskID {
		s := make([]sched.TaskID, nn)
		for i := range s {
			s[i] = sched.NoTask
		}
		return s
	}
	uTask := noTasks()   // S2U (leaves) or U2U (internal): finalizes e.U[i]
	vTask := noTasks()   // V-list translations into e.DChk[i]
	xTask := noTasks()   // X-list contributions into e.DChk[i]
	dTask := noTasks()   // downward solve: finalizes e.D[i]
	wTask := noTasks()   // W-list contributions into leaf potentials
	d2tTask := noTasks() // own downward field into leaf potentials

	// Upward chain: S2U per populated local leaf, U2U per internal node,
	// chained by tree parenthood (finest level first falls out of the
	// dependencies).
	for _, i := range t.Leaves {
		n := &t.Nodes[i]
		if !n.Local || n.NPoints() == 0 || !e.srcNode(i) {
			continue
		}
		uTask[i] = dagTask(g, e, "S2U", sched.PriCritical, diag.PhaseUpward, e.s2uLeaf, i)
	}
	for i := 0; i < nn; i++ {
		if !t.Nodes[i].IsLeaf && e.srcNode(int32(i)) {
			uTask[i] = dagTask(g, e, "U2U", sched.PriCritical, diag.PhaseUpward, e.u2uNode, int32(i))
		}
	}
	for i := 0; i < nn; i++ {
		n := &t.Nodes[i]
		if n.IsLeaf {
			continue
		}
		for _, cj := range n.Children {
			if cj != octree.NoNode && uTask[cj] != sched.NoTask {
				g.Dep(uTask[cj], uTask[i])
			}
		}
	}

	// V-list: per-target translation tasks gated on exactly the sources
	// they read. The FFT mode adds one forward-transform task per source.
	if e.UseFFTM2L {
		e.buildVFFT(g, uTask, vTask)
	} else {
		for i := 0; i < nn; i++ {
			n := &t.Nodes[i]
			if len(n.V) == 0 || !e.trgNode(int32(i)) {
				continue
			}
			vTask[i] = dagTask(g, e, "V", sched.PriHigh, diag.PhaseVList, e.vliDenseNode, int32(i))
			for _, a := range n.V {
				if uTask[a] != sched.NoTask {
					g.Dep(uTask[a], vTask[i])
				}
			}
		}
	}

	// X-list: reads source points (no upward deps), but chained after the
	// octant's V task to preserve the DChk accumulation order.
	for i := 0; i < nn; i++ {
		if len(t.Nodes[i].X) == 0 || !e.trgNode(int32(i)) {
			continue
		}
		xTask[i] = dagTask(g, e, "X", sched.PriNormal, diag.PhaseXList, e.xliNode, int32(i))
		if vTask[i] != sched.NoTask {
			g.Dep(vTask[i], xTask[i])
		}
	}

	// Downward chain: parent before child (parents precede children in
	// Morton preorder, so dTask[n.Parent] is already assigned), after the
	// octant's last DChk contribution.
	for i := 0; i < nn; i++ {
		n := &t.Nodes[i]
		if !n.Local || !e.trgNode(int32(i)) {
			continue
		}
		dTask[i] = dagTask(g, e, "D2D", sched.PriHigh, diag.PhaseDownward, e.downwardNode, int32(i))
		last := xTask[i]
		if last == sched.NoTask {
			last = vTask[i]
		}
		if last != sched.NoTask {
			g.Dep(last, dTask[i])
		}
		if n.Parent != octree.NoNode && dTask[n.Parent] != sched.NoTask {
			g.Dep(dTask[n.Parent], dTask[i])
		}
	}

	// Leaf potential chain, in the barrier path's accumulation order:
	// W-list, then the leaf's own downward field, then the direct sum.
	for _, i := range t.Leaves {
		n := &t.Nodes[i]
		if !e.trgNode(i) {
			continue
		}
		if len(n.W) > 0 && n.NPoints() > 0 {
			wTask[i] = dagTask(g, e, "W", sched.PriLow, diag.PhaseWList, e.wliLeaf, i)
			for _, a := range n.W {
				if uTask[a] != sched.NoTask {
					g.Dep(uTask[a], wTask[i])
				}
			}
		}
		if n.Local && n.NPoints() > 0 {
			d2tTask[i] = dagTask(g, e, "D2T", sched.PriNormal, diag.PhaseDownward, e.d2tLeaf, i)
			g.Dep(dTask[i], d2tTask[i])
			if wTask[i] != sched.NoTask {
				g.Dep(wTask[i], d2tTask[i])
			}
		}
		if len(n.U) > 0 && n.NPoints() > 0 {
			uli := dagTask(g, e, "U", sched.PriLow, diag.PhaseUList, e.uliLeaf, i)
			prev := d2tTask[i]
			if prev == sched.NoTask {
				prev = wTask[i]
			}
			if prev != sched.NoTask {
				g.Dep(prev, uli)
			}
		}
	}
	return g
}

// buildVFFT adds the FFT-diagonalized V-list subgraph: one forward-FFT
// ("spec") task per referenced source octant and one task per sibling group
// — the children of one parent that have V entries and are targets — running
// the same group body as the barrier pass (vliFFTGroup); vTask of every
// member is the group's task. Only the spectrum lifetime differs: spectra are
// reference-counted and released as their last consumer finishes, which
// bounds the live-spectrum footprint without a level barrier.
func (e *Engine) buildVFFT(g *sched.Graph, uTask, vTask []sched.TaskID) {
	t := e.Tree
	f := e.Ops.FFT()
	nn := len(t.Nodes)
	spec := make([][]float64, nn)
	refs := make([]int32, nn)
	specTask := make([]sched.TaskID, nn)
	for i := range specTask {
		specTask[i] = sched.NoTask
	}

	nTrg := 0
	for i := 0; i < nn; i++ {
		if len(t.Nodes[i].V) == 0 || !e.trgNode(int32(i)) {
			continue
		}
		nTrg++
		for _, a := range t.Nodes[i].V {
			if !e.srcNode(a) {
				continue
			}
			refs[a]++
			if specTask[a] == sched.NoTask {
				a := a
				specTask[a] = g.AddW("spec", sched.PriHigh, func(w int) {
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
	tables := vTables{f: f, workers: e.Workers}
	members := make([]int32, 0, nTrg) // every group's targets, back to back
	// gated[a] is the last group task given an edge from spec(a): siblings
	// share most of their sources, and one edge per (source, group) is enough.
	gated := make([]sched.TaskID, nn)
	for i := range gated {
		gated[i] = sched.NoTask
	}
	for p := 0; p < nn; p++ {
		if t.Nodes[p].IsLeaf {
			continue
		}
		lo := len(members)
		for _, c := range t.Nodes[p].Children {
			if c != octree.NoNode && len(t.Nodes[c].V) > 0 && e.trgNode(c) {
				members = append(members, c)
			}
		}
		grp := members[lo:]
		if len(grp) == 0 {
			continue
		}
		tb := tables.at(t.Nodes[grp[0]].Key.Level())
		task := g.AddW("Vfft", sched.PriHigh, func(w int) {
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
