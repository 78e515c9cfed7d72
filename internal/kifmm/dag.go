package kifmm

import (
	"context"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"kifmm/internal/morton"
	"kifmm/internal/octree"
	"kifmm/internal/sched"
)

// EvaluateDAG runs the full evaluation — every row of the phase table — as
// one dependency task graph on the internal/sched runtime: per-octant tasks
// gated only on the data they actually read, instead of eight
// bulk-synchronous phases separated by global barriers. It is the one
// executor of the engine: Run, Evaluate and the per-row methods all build
// their graphs here.
//
// Dependency structure (one task per octant per phase — per entry of the
// phase table's work — named after the row; the rules are buildDAG's after):
//
//	S2U(leaf)                         — no deps
//	U2U(i)                            — after U of every child (tree parenthood)
//	spec(a)  [FFT mode]               — after U of source a (forward FFT), and
//	                                    after every group more than vWindow
//	                                    places before a's first consumer
//	V(i)     [dense mode]             — after U of every source in i's V list
//	Vfft(group) [FFT mode]            — after spec of every source in the V
//	                                    lists of the group's siblings
//	X(i)                              — after V(i) / Vfft(group of i)  (DChk write order),
//	                                    and after U(i) where W ⟷ X is paired (wxPairs)
//	D2D(i)                            — after D2D(parent), X(i)/V
//	W(leaf)                           — after U of every source in the W list, and
//	                                    after X of every source that serves one of
//	                                    its entries (wxPairs)
//	D2T(leaf)                         — after D2D(leaf), W(leaf)  (potential write order)
//	U(leaf)                           — after D2T(leaf)/W(leaf)   (potential write order),
//	                                    and after U of every earlier leaf that
//	                                    serves one of its entries (nearPairs)
//
// The intra-octant chains (V→X→D2D, W→D2T→U) fix the accumulation order into
// DChk and Potential, every source list is walked in list order, and the FFT
// V-list body accumulates in an order of Morton keys alone (vliFFTGroup) —
// which is why the result is bit-identical at every worker count, and to the
// sequential walk of the table the tests keep as an oracle. Nothing but the
// dependencies orders the tasks: a worker chases the chain it is on
// (internal/sched).
//
// A nil trace skips event capture. EvaluateDAG is Run without a context or
// an exchange step; the only error source is a panicking task (the scheduler
// fails the graph instead of deadlocking).
func (e *Engine) EvaluateDAG(trace *sched.Trace) (sched.Stats, error) {
	return e.Run(context.Background(), nil, trace)
}

// runRows runs rows [lo, hi) of the phase table as one task graph under ctx
// and folds the graph's accounting into l.
func (e *Engine) runRows(ctx context.Context, lo, hi int, trace *sched.Trace, l *ledger) error {
	e.ensureScratch(e.dagWorkers())
	stats, err := e.buildDAG(lo, hi).Run(ctx, sched.Options{Workers: e.Workers, Trace: trace})
	l.fold(e.scratch, stats)
	return err
}

// runRow runs row pi alone and merges its ledger, panicking if a body did.
func (e *Engine) runRow(pi int) {
	var l ledger
	err := e.runRows(context.Background(), pi, pi+1, nil, &l)
	e.merge(&l)
	if err != nil {
		panic(err)
	}
}

// buildDAG assembles the task graph of rows [lo, hi) of the phase table, a
// row at a time: one task per entry of the row's work, then what each of
// them waits for. A predecessor in a row outside [lo, hi) is NoTask — its
// data is taken as final. A task runs the row's body on the executing
// worker's scratch (the scheduler guarantees worker indices are exclusive, so
// e.scratch[w] is owned for the duration of the task) and adds its duration
// to the row's tally there: a row's time is task time summed across workers,
// not phase wall time. Construction is deterministic (table order, then work
// order), which keeps task IDs stable across runs of the same plan.
func (e *Engine) buildDAG(lo, hi int) *sched.Graph {
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

	e.pairRows(lo, hi)
	near := e.near // the U row's pairing, when the graph holds the row

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
		case pXLI: // DChk accumulation order; U[i] when it serves W ⟷ X
			dep(v[i], id)
			if e.pairWX {
				dep(u[i], id)
			}
		case pD2D: // the octant's last DChk contribution, and its parent
			dep(firstTask(x[i], v[i]), id)
			if n.Parent != octree.NoNode {
				dep(d[n.Parent], id)
			}
		case pWLI: // and X of every source that serves one of its entries
			served := e.wxServed(i)
			for k, a := range n.W {
				dep(u[a], id)
				if served != nil && served[k] >= 0 {
					dep(x[a], id)
				}
			}
		case pD2T: // Potential accumulation order: W, D2T, U
			dep(d[i], id)
			dep(w[i], id)
		case pULI: // and every earlier leaf that serves one of its entries
			dep(firstTask(d2t[i], w[i]), id)
			for _, a := range n.U {
				if near.serves(a, i) {
					dep(task[pULI][a], id)
				}
			}
		}
	}

	for pi := lo; pi < hi; pi++ {
		p := &phases[pi]
		runs := e.work(p)
		if pi == pULI {
			runs = [][]int32{near.order} // chunks whole, each in rank order
		}
		if pi == pVLI && e.UseFFTM2L {
			e.buildVFFT(g, runs, u, v)
			continue
		}
		for _, run := range runs {
			for _, i := range run {
				task[pi][i] = g.Add(p.name, func(worker int) {
					s := e.scratch[worker]
					t0 := time.Now() //fmm:allow nodeterm task timing feeds the ledger only; results never read it
					p.body(e, i, s)
					s.clock(pi, t0)
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

// vWindow is how many places ahead of its first consumer, in the V row's
// sibling-group order, a source spectrum may be computed: spec(a) waits until
// every group more than vWindow places before the first group that reads it
// is done. Spectra are released after their last consumer, so the live set is
// the sources whose consumers span the groups in flight — a window of the
// row, not the whole row's sources — at any worker count and schedule.
const vWindow = 16

// specHeld, when set (tests only), is told of every V-row source spectrum
// computed (+1) and dropped (−1), so a test can track how many are held.
var specHeld func(delta int)

// buildVFFT adds the FFT-diagonalized V-list subgraph for the V row's work
// (levels, root first): the row's targets are cut into sibling groups — the
// children of one parent that are in the work — ordered level by level and in
// Morton order within a level. Each group is one task running vliFFTGroup;
// vTask of every member is the group's task. Each referenced source gets one
// forward-FFT ("spec") task, created with the group that reads it first and
// gated on the ordering task vWindow places before it: a body-less task that
// completes once its group and every earlier one are done. (A gate on the one
// group vWindow places back would not do: the scheduler runs the newest ready
// task first, so a chain of groups vWindow apart could run ahead of the
// groups between them.) Spectra are reference-counted: a buffer returns to
// the row's free list after its last consumer finishes, and the next spec
// task reuses it, so the row allocates only as many buffers as it holds at
// once.
func (e *Engine) buildVFFT(g *sched.Graph, levels [][]int32, uTask, vTask []sched.TaskID) {
	t := e.Tree
	f := e.Ops.FFT()
	nn := len(t.Nodes)
	spec := make([][]float64, nn)
	// uses[a] counts source a's consumers while the graph is built and refs
	// carries the count into the run, where consumers decrement it: counting
	// in refs directly would cost a locked add per V entry on every Apply.
	uses := make([]int32, nn)
	refs := make([]atomic.Int32, nn)
	specTask := noTasks(nn)
	var (
		mu   sync.Mutex
		free [][]float64 // released spectra, for the next spec task
	)

	// Cut the targets into sibling groups: a level's targets in Morton order
	// put each parent's children side by side.
	nTrg := 0
	for _, level := range levels {
		nTrg += len(level)
	}
	members := make([]int32, 0, nTrg) // every group's targets, back to back
	var starts []int                  // where each group starts in members
	for _, level := range levels {
		lo := len(members)
		members = append(members, level...)
		run := members[lo:]
		slices.SortFunc(run, func(a, b int32) int { return morton.Compare(t.Nodes[a].Key, t.Nodes[b].Key) })
		for k := range run {
			if k == 0 || t.Nodes[run[k]].Parent != t.Nodes[run[k-1]].Parent {
				starts = append(starts, lo+k)
			}
		}
	}
	starts = append(starts, len(members))

	tables := vTables{f: f, workers: e.Workers}
	done := make([]sched.TaskID, len(starts)-1) // done[k]: groups 0..k have run
	// gated[a] is the last group task given an edge from spec(a): siblings
	// share most of their sources, and one edge per (source, group) is enough.
	gated := noTasks(nn)
	for k := range done {
		grp := members[starts[k]:starts[k+1]]
		for _, i := range grp {
			for _, a := range t.Nodes[i].V {
				if !e.srcNode(a) {
					continue
				}
				uses[a]++
				if specTask[a] != sched.NoTask {
					continue
				}
				specTask[a] = g.Add("spec", func(w int) {
					t0 := time.Now() //fmm:allow nodeterm task timing feeds the ledger only; results never read it
					mu.Lock()
					var sp []float64
					if n := len(free); n > 0 {
						sp, free = free[n-1], free[:n-1]
					}
					mu.Unlock()
					if sp == nil {
						sp = make([]float64, f.SpecLen())
					}
					f.SourceSpectrumInto(e.U[a], sp, e.scratch[w].grid(f.GridLen()))
					spec[a] = sp
					if specHeld != nil {
						specHeld(1)
					}
					e.scratch[w].clock(pVLI, t0)
				})
				if uTask[a] != sched.NoTask {
					g.Dep(uTask[a], specTask[a])
				}
				if k >= vWindow {
					g.Dep(done[k-vWindow], specTask[a])
				}
			}
		}
		tb := tables.at(t.Nodes[grp[0]].Key.Level())
		task := g.Add("Vfft", func(w int) {
			t0 := time.Now() //fmm:allow nodeterm task timing feeds the ledger only; results never read it
			e.vliFFTGroup(grp, f, tb, spec, e.scratch[w])
			// Release mirrors the ref counting above exactly (one count per
			// mask-selected V entry); the atomic decrement orders the release
			// after every other consumer's reads.
			for _, i := range grp {
				for _, a := range t.Nodes[i].V {
					if e.srcNode(a) && refs[a].Add(-1) == 0 {
						mu.Lock()
						free = append(free, spec[a])
						mu.Unlock()
						spec[a] = nil
						if specHeld != nil {
							specHeld(-1)
						}
					}
				}
			}
			e.scratch[w].clock(pVLI, t0)
		})
		done[k] = g.Add("Vdone", nil)
		g.Dep(task, done[k])
		if k > 0 {
			g.Dep(done[k-1], done[k])
		}
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
	for a, n := range uses {
		if n > 0 {
			refs[a].Store(n)
		}
	}
}
