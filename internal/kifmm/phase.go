package kifmm

import (
	"slices"
	"time"

	"kifmm/internal/diag"
	"kifmm/internal/octree"
	"kifmm/internal/sched"
)

// octantSet names the octants a phase walks and, for the levelwise ones, the
// level order of its work.
type octantSet uint8

const (
	overLeaves octantSet = iota // Tree.Leaves, independent of one another
	overNodes                   // every node, independent of one another
	levelsUp                    // every node, a level at a time, finest level first
	levelsDown                  // every node, a level at a time, root first
)

// phase is everything the executor knows about one operator of Algorithm 1.
// The task graph (compile) reads it, and so does the sequential test oracle,
// so which octants a phase touches is decided once, by has; the bodies assume
// it.
type phase struct {
	name string // task and trace name
	diag string // diag phase its time is reported under
	over octantSet
	// has reports whether octant i has work in this phase. Everything it
	// excludes would contribute exactly zero.
	has func(e *Engine, i int32) bool
	// body does octant i's work on the executing worker's scratch.
	body func(e *Engine, i int32, s *evalScratch)
}

// Rows of phases.
const (
	pS2U = iota
	pU2U
	pVLI
	pXLI
	pD2D
	pWLI
	pD2T
	pULI
	numRows
)

// phases lists the operators in Algorithm 1's order, which is also the order
// in which an octant's accumulators (DChk: V, X, D2D; Potential: W, D2T, U)
// receive their contributions.
var phases = [numRows]phase{
	pS2U: {name: "S2U", diag: diag.PhaseUpward, over: overLeaves, body: (*Engine).s2uLeaf,
		has: func(e *Engine, i int32) bool {
			n := &e.Tree.Nodes[i]
			return n.Local && n.NPoints() > 0 && e.srcNode(i)
		}},
	pU2U: {name: "U2U", diag: diag.PhaseUpward, over: levelsUp, body: (*Engine).u2uNode,
		has: func(e *Engine, i int32) bool {
			return !e.Tree.Nodes[i].IsLeaf && e.srcNode(i)
		}},
	// V interactions are same-level; the FFT mode orders its sibling groups a
	// level at a time (compileVFFT). body is the dense oracle's, the FFT mode
	// runs vliFFTGroup per sibling group instead.
	pVLI: {name: "V", diag: diag.PhaseVList, over: levelsDown, body: (*Engine).vliDenseNode,
		has: func(e *Engine, i int32) bool {
			return len(e.Tree.Nodes[i].V) > 0 && e.trgNode(i)
		}},
	// In a graph that holds the W row too, X(a) serves each W ⟷ X pair both
	// ways and W(j) adds the partial it parked (pairing): the pair's time is
	// the X row's, its flops stay counted in both rows (rowFlops).
	pXLI: {name: "X", diag: diag.PhaseXList, over: overNodes, body: (*Engine).xliNode,
		has: func(e *Engine, i int32) bool {
			return len(e.Tree.Nodes[i].X) > 0 && e.trgNode(i)
		}},
	pD2D: {name: "D2D", diag: diag.PhaseDownward, over: levelsDown, body: (*Engine).downwardNode,
		has: func(e *Engine, i int32) bool {
			return e.Tree.Nodes[i].Local && e.trgNode(i)
		}},
	pWLI: {name: "W", diag: diag.PhaseWList, over: overLeaves, body: (*Engine).wliLeaf,
		has: func(e *Engine, i int32) bool {
			n := &e.Tree.Nodes[i]
			return len(n.W) > 0 && n.NPoints() > 0 && e.trgNode(i)
		}},
	pD2T: {name: "D2T", diag: diag.PhaseDownward, over: overLeaves, body: (*Engine).d2tLeaf,
		has: func(e *Engine, i int32) bool {
			n := &e.Tree.Nodes[i]
			return n.Local && n.NPoints() > 0 && e.trgNode(i)
		}},
	pULI: {name: "U", diag: diag.PhaseUList, over: overLeaves, body: (*Engine).uliLeaf,
		has: func(e *Engine, i int32) bool {
			n := &e.Tree.Nodes[i]
			return len(n.U) > 0 && n.NPoints() > 0 && e.trgNode(i)
		}},
}

// work returns the octants with work in p, in runs: one run for a leaf or
// node phase, one per level for a levelwise one (finest first for levelsUp).
// Within a run the order is node-index order. Recomputed per call, O(nodes).
func (e *Engine) work(p *phase) [][]int32 {
	t := e.Tree
	runs := make([][]int32, 1)
	if p.over == overLeaves {
		for _, i := range t.Leaves {
			if p.has(e, i) {
				runs[0] = append(runs[0], i)
			}
		}
		return runs
	}
	for i := range t.Nodes {
		if !p.has(e, int32(i)) {
			continue
		}
		l := 0
		if p.over != overNodes {
			l = t.Nodes[i].Key.Level()
		}
		for len(runs) <= l {
			runs = append(runs, nil)
		}
		runs[l] = append(runs[l], int32(i))
	}
	if p.over == levelsUp {
		slices.Reverse(runs)
	}
	return runs
}

// flopCosts are the constants of octantFlops, read once per count: the
// upward and check vector lengths, the surface points and one point pair's
// flops.
type flopCosts struct{ ul, cl, surf, pair int64 }

func (e *Engine) flopCosts() flopCosts {
	return flopCosts{ul: int64(e.Ops.UpwardLen()), cl: int64(e.Ops.CheckLen()), surf: int64(e.Ops.NumSurf()),
		pair: int64(e.Ops.Kern.FlopsPerInteraction())}
}

// octantFlops is the engine's one flop count: the flops of row pi's task on
// octant i, from its lists, the masks, the kernel, the order and the V mode —
// FlopsPerInteraction per point pair (a surface is NumSurf points),
// 2·rows·cols per mat-vec, vFlops per V interaction, a pair served both ways
// counted at both its entries. compile and the test oracle total it over a
// row (rowFlops), LeafWeights over a leaf's rows.
func (e *Engine) octantFlops(c *flopCosts, pi int, i int32) int64 {
	n := &e.Tree.Nodes[i]
	pts := int64(n.NPoints())
	var entries, srcPts int64 // the list's entries (children, or mask-selected sources), their points
	for _, a := range [numRows][]int32{pU2U: n.Children[:], pVLI: n.V, pXLI: n.X, pWLI: n.W, pULI: n.U}[pi] {
		if a != octree.NoNode && (pi == pU2U || e.srcNode(a)) {
			entries, srcPts = entries+1, srcPts+int64(e.Tree.Nodes[a].NPoints())
		}
	}
	switch pi {
	case pS2U:
		return pts*c.surf*c.pair + 2*c.ul*c.cl
	case pU2U:
		return entries * 2 * c.ul * c.ul
	case pVLI:
		return entries * e.vFlops()
	case pXLI:
		return srcPts * c.surf * c.pair
	case pD2D: // the solve, after the parent's shift where there is one
		f := 2 * c.ul * c.cl
		if n.Parent != octree.NoNode {
			f += 2 * c.cl * c.ul
		}
		return f
	case pWLI:
		return entries * pts * c.surf * c.pair
	case pD2T:
		return pts * c.surf * c.pair
	default: // pULI
		return pts * srcPts * c.pair
	}
}

// rowFlops is octantFlops summed over the octants of runs, row pi's work.
func (e *Engine) rowFlops(pi int, runs [][]int32) (f int64) {
	c := e.flopCosts()
	for _, run := range runs {
		for _, i := range run {
			f += e.octantFlops(&c, pi, i)
		}
	}
	return f
}

// vFlops is one V interaction's flops: a half-spectrum Hadamard, or an M2L mat-vec.
func (e *Engine) vFlops() int64 {
	if e.UseFFTM2L {
		return int64(8 * e.Ops.Kern.SrcDim() * e.Ops.Kern.TrgDim() * e.Ops.FFT().HalfLen())
	}
	return 2 * int64(e.Ops.UpwardLen()*e.Ops.CheckLen())
}

// Record is one evaluation's accounting: the time and flops of each row of
// the phase table, the scheduler's counters summed over the graphs that ran
// them, and the wall times around them. Times are the workers': each
// worker's scratch carries a table of task time per row that its tasks write
// without locks, and at graph end fold sums the tables into the record and
// zeroes them. Flops are the schedule's, added for a graph that completes: a
// failed one adds its tasks' time and no flops. Run returns the record as a
// value, and MergeInto hands it to a profile under the profile's one lock.
type Record struct {
	sched.Stats
	ns, flops [numRows]int64 // each row's task time and flops
	// Graphs counts the task graphs run: one per Apply, two per rank of a
	// distributed evaluation (before and after its exchange step).
	Graphs int64
	// Total is Run's wall time (diag.PhaseTotalEval), summed over the ranks
	// of a sharded Apply; zero outside Run.
	Total time.Duration
	// ShardComm is a sharded Apply's communication time, ghost exchange and
	// upward reduction, summed over its ranks (diag.PhaseShardComm); zero
	// elsewhere.
	ShardComm time.Duration
}

// fold adds one graph to r: its scheduler stats and every worker's task
// times, which it zeroes for the next graph.
func (r *Record) fold(scratch []*evalScratch, st sched.Stats) {
	for _, s := range scratch {
		r.Add(Record{ns: s.rows})
		s.rows = [numRows]int64{}
	}
	r.Add(Record{Stats: st, Graphs: 1})
}

// Add accumulates o into r; a sharded Apply's record sums its ranks'.
func (r *Record) Add(o Record) {
	for pi := range r.ns {
		r.ns[pi] += o.ns[pi]
		r.flops[pi] += o.flops[pi]
	}
	r.Stats.Add(o.Stats)
	r.Graphs += o.Graphs
	r.Total += o.Total
	r.ShardComm += o.ShardComm
}

// Phase returns the task time and flops of the rows reported under the diag
// phase name: S2U and U2U under Upward, D2D and D2T under Downward, each
// other row under its own list.
func (r *Record) Phase(name string) (d time.Duration, flops int64) {
	for pi := range phases {
		if phases[pi].diag == name {
			d += time.Duration(r.ns[pi])
			flops += r.flops[pi]
		}
	}
	return d, flops
}

// Flops returns the flops of every row: the evaluation's compute work, the
// sum of Phase's over the six list and pass names.
func (r *Record) Flops() (flops int64) {
	for _, f := range r.flops {
		flops += f
	}
	return flops
}

// MergeInto adds r to p, if set, under one lock: Total eval, the
// scheduler's idle time and counters, Shard comm where set, and every row a
// task touched under its diag phase (S2U and U2U sum into Upward, D2D and
// D2T into Downward). Rows nothing touched stay absent from the profile, and
// a record of no graph (an Apply refused before it ran) adds nothing.
func (r *Record) MergeInto(p *diag.Profile) {
	if p == nil || r.Graphs == 0 {
		return
	}
	names := [numRows + 3]string{diag.PhaseTotalEval, diag.PhaseSchedIdle}
	times := [numRows + 3]time.Duration{r.Total, r.Idle}
	var flops [numRows + 3]int64
	k := 2
	if r.ShardComm != 0 {
		names[k], times[k] = diag.PhaseShardComm, r.ShardComm
		k++
	}
	for pi := range phases {
		if r.ns[pi] != 0 || r.flops[pi] != 0 {
			names[k], times[k], flops[k] = phases[pi].diag, time.Duration(r.ns[pi]), r.flops[pi]
			k++
		}
	}
	p.Merge(names[:k], times[:k], flops[:k],
		[]string{diag.CounterSchedGraphs, diag.CounterSchedTasks, diag.CounterSchedSteals},
		[]int64{r.Graphs, r.Tasks, r.Steals})
}

// The exported phase methods run one row of the table as a task graph of its
// own: the row's predecessors in the other rows are simply absent. Benchmarks,
// experiments and the simulated device call them one by one. A panicking body
// panics here.

// S2U computes upward-equivalent densities of every local leaf from its
// source points: evaluate the sources on the upward-check surface, then
// solve to the equivalent surface (step 1 of Algorithm 1).
func (e *Engine) S2U() { e.runRow(pS2U) }

// U2U accumulates child upward densities into parents, finest level first
// (step 2). Within a level, parents are processed independently.
func (e *Engine) U2U() { e.runRow(pU2U) }

// VLI applies the V-list translations (step 3a), accumulating into the
// downward-check potentials. Uses dense M2L matrices or the
// FFT-diagonalized path depending on UseFFTM2L.
func (e *Engine) VLI() { e.runRow(pVLI) }

// XLI evaluates X-list sources directly onto downward-check surfaces
// (step 3b).
func (e *Engine) XLI() { e.runRow(pXLI) }

// Downward runs the downward pass (step 4): top-down, each local octant
// receives its parent's downward-equivalent field on its check surface and
// solves for its own downward-equivalent densities.
func (e *Engine) Downward() { e.runRow(pD2D) }

// WLI evaluates W-list upward-equivalent fields at local leaf targets
// (step 5a).
func (e *Engine) WLI() { e.runRow(pWLI) }

// D2T evaluates each local leaf's downward-equivalent field at its own
// targets (step 5b).
func (e *Engine) D2T() { e.runRow(pD2T) }

// ULI computes the exact near-field interactions (the direct sum over the
// U-list).
func (e *Engine) ULI() { e.runRow(pULI) }
