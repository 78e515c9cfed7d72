package kifmm

import "kifmm/internal/sched"

// oracle is the reference the task graph is tested against: the phase table
// walked as a plain sequential loop — row by row, and within a row run by
// run (level by level for the levelwise rows) in work order, the U row in its
// pairing's order, W ⟷ X paired as in a graph of every row (X before W, so
// each X task parks before the W task that adds) — calling each row's body on
// one scratch. The FFT V row
// transforms a level's sources, then
// runs vliFFTGroup per sibling group. No scheduler, no dependencies, no
// spectrum window: what the graph must reproduce bit for bit at every worker
// count. Its flops are rowFlops over its own walk, target by target on the
// FFT V row too, not the schedule's totals.
func (e *Engine) oracle() {
	s := e.ensureScratch(1)[0]
	e.pairRows(0, numRows) // the pairings the bodies read, every buffer free
	var flops [numRows]int64
	for pi := range phases {
		p := &phases[pi]
		runs := e.work(p)
		if pi == pULI {
			runs = [][]int32{e.pairs.order}
		}
		flops[pi] = e.rowFlops(pi, runs)
		for _, run := range runs {
			if pi == pVLI && e.UseFFTM2L {
				e.oracleVFFT(run, s)
				continue
			}
			for _, i := range run {
				p.body(e, i, s)
			}
		}
	}
	l := Record{flops: flops}
	l.fold(e.scratch, sched.Stats{})
	l.MergeInto(e.Prof)
}

// oracleVFFT is the oracle's FFT V-list over one level's targets (in node
// order): every source they read is transformed once, then each run of
// targets sharing a parent is one vliFFTGroup call.
func (e *Engine) oracleVFFT(level []int32, s *evalScratch) {
	if len(level) == 0 {
		return
	}
	t := e.Tree
	f := e.Ops.FFT()
	spec := make([][]float64, len(t.Nodes))
	for _, i := range level {
		for _, a := range t.Nodes[i].V {
			if e.srcNode(a) && spec[a] == nil {
				spec[a] = f.SourceSpectrum(e.U[a])
			}
		}
	}
	tb := e.Ops.vTable(t.Nodes[level[0]].Key.Level(), 1)
	for lo := 0; lo < len(level); {
		hi := lo + 1
		for hi < len(level) && t.Nodes[level[hi]].Parent == t.Nodes[level[lo]].Parent {
			hi++
		}
		e.vliFFTGroup(level[lo:hi], f, tb, spec, s)
		lo = hi
	}
}
