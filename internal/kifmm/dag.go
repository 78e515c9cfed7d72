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
// executor of the engine: Run, Evaluate and the per-row methods all run their
// rows' graphs here.
//
// A graph is compiled once per tree, masks, V mode and row range (compile,
// into a schedule) — the density-independent half of an evaluation, like the
// tree and its lists — and every run only executes it: a plan's engines share
// its schedules (EnginePool), a bare engine compiles its own on first use.
//
// Dependency structure (one task per octant per phase — per entry of the
// phase table's work — named after the row; the rules are compile's after):
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
//	                                    and after U(i) where one of its links gives
//	D2D(i)                            — after D2D(parent), X(i)/V
//	W(leaf)                           — after U of every source in the W list, and
//	                                    after X of every source whose partial one of
//	                                    its links takes
//	D2T(leaf)                         — after D2D(leaf), W(leaf)  (potential write order)
//	U(leaf)                           — after D2T(leaf)/W(leaf)   (potential write order),
//	                                    and after U of every leaf whose partial one
//	                                    of its links takes
//
// The links are the schedule's pairing (pairing.go): a taker waits on its giver.
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
	r, err := e.Run(context.Background(), nil, trace)
	return r.Stats, err
}

// runRows runs rows [lo, hi) of the phase table as one task graph under ctx
// and folds the graph's accounting into r, flops only if it completed.
func (e *Engine) runRows(ctx context.Context, lo, hi int, trace *sched.Trace, r *Record) error {
	e.ensureScratch(e.Workers)
	e.pairRows(lo, hi)
	stats, err := e.graph.Run(ctx, sched.Options{Workers: e.Workers, Trace: trace}, e.exec)
	r.fold(e.scratch, stats)
	if err == nil {
		r.Add(Record{flops: e.flops})
	}
	return err
}

// runRow runs row pi alone and merges its record, panicking if a body did.
func (e *Engine) runRow(pi int) {
	var r Record
	err := e.runRows(context.Background(), pi, pi+1, nil, &r)
	r.MergeInto(e.Prof)
	if err != nil {
		panic(err)
	}
}

// schedule is the compiled task graph of rows [lo, hi) of the phase table
// for one tree, its masks and V mode: what a run needs that the densities do
// not change. compile builds it once; every engine running those rows shares
// it read-only, and a run writes only engine state, which pairRows re-arms.
type schedule struct {
	graph *sched.Graph
	refs  []taskRef // refs[id]: what task id runs
	// pairs links the pairs served, where the graph holds the X row or a later one.
	pairs *pairing
	// The FFT V row: sibling group k is vGroups[k], translated with vTab[k];
	// vUses[a] counts source a's consumers, where its release count starts.
	vFFT    *FFTM2L
	vGroups [][]int32
	vTab    []*vTable
	vUses   []int32
	flops   [numRows]int64 // each row's, what a completed run computes (rowFlops)
}

// taskRef is what a task runs: row kind (a phase row, or kSpec, kVGroup,
// kJoin) on i (an octant, or a V group).
type taskRef struct{ kind, i int32 }

const (
	kSpec   = numRows + iota // source i's forward FFT (V row)
	kVGroup                  // sibling group i's V-list body
	kJoin                    // a synchronization point: never run
)

func (s *schedule) add(name string, kind, i int32) sched.TaskID {
	s.refs = append(s.refs, taskRef{kind, i})
	return s.graph.Add(name)
}

// memoryBytes counts the graph, the task refs, the pairing, and the V row's
// groups, table pointers and use counts. The translation spectra the tables
// hold are not the schedule's: they belong to the operators' level tables,
// which every plan of those operators shares.
func (s *schedule) memoryBytes() int64 {
	b := s.graph.MemoryBytes() + 8*int64(len(s.refs)+len(s.vTab)) + 4*int64(len(s.vUses))
	for _, g := range s.vGroups {
		b += 24 + 4*int64(len(g))
	}
	if s.pairs != nil {
		b += 4 * int64(len(s.pairs.at)+len(s.pairs.link)+len(s.pairs.order))
	}
	return b
}

// graphSet holds one tree's schedules under one pair of masks and V mode, by
// row range, each compiled by the first engine to run it. A plan's engines
// share their pool's set; a bare engine starts one of its own.
type graphSet struct {
	fft     bool
	mu      sync.Mutex
	byRange map[[2]int]*schedule
}

// onCompile, when set (tests only), is told of every schedule compiled.
var onCompile func(lo, hi int)

func (gs *graphSet) get(e *Engine, lo, hi int) *schedule {
	gs.mu.Lock()
	defer gs.mu.Unlock()
	s := gs.byRange[[2]int{lo, hi}]
	if s == nil {
		s = e.compile(lo, hi)
		gs.byRange[[2]int{lo, hi}] = s
	}
	return s
}

func (gs *graphSet) memoryBytes() (b int64) {
	gs.mu.Lock()
	defer gs.mu.Unlock()
	for _, s := range gs.byRange {
		b += s.memoryBytes()
	}
	return b
}

func newGraphSet(fft bool) *graphSet {
	return &graphSet{fft: fft, byRange: map[[2]int]*schedule{}}
}

// pairRows readies the engine to run rows [lo, hi): it takes their schedule
// and re-arms what a run writes, allocating nothing once warm — every
// parked-partial buffer free (a stopped run leaves partials parked), the
// inbox, and the V row's use counts, with any spectrum a stopped run held
// back returned to the free buffers. Callers run it before the rows' tasks.
func (e *Engine) pairRows(lo, hi int) {
	if e.set == nil || e.set.fft != e.UseFFTM2L {
		e.set = newGraphSet(e.UseFFTM2L)
	}
	s := e.set.get(e, lo, hi)
	e.schedule = s
	if e.store == nil {
		e.store = newPartStore(e.Tree, e.Ops.Kern.TrgDim())
	}
	e.store.reclaim()
	if s.pairs != nil && len(e.inbox) < s.pairs.places {
		e.inbox = make([]int32, s.pairs.places)
	}
	if s.vUses != nil && e.spec == nil {
		e.spec = make([][]float64, len(s.vUses))
		e.specRefs = make([]atomic.Int32, len(s.vUses))
	}
	for a, n := range s.vUses {
		e.specRefs[a].Store(n)
		if e.spec[a] != nil {
			e.specFree = append(e.specFree, e.spec[a])
			e.spec[a] = nil
		}
	}
}

// compile builds the schedule of rows [lo, hi) of the phase table, a row at a
// time: one task per entry of the row's work, then what each of them waits
// for. A predecessor in a row outside [lo, hi) is NoTask — its data is taken
// as final. Construction is deterministic (table order, then work order), so
// task IDs are the same for every schedule of the same rows and plan. It reads
// only the engine's tree, operators, masks, kernel and V mode, which every
// engine of one graphSet shares.
func (e *Engine) compile(lo, hi int) *schedule {
	if onCompile != nil {
		onCompile(lo, hi)
	}
	t := e.Tree
	s := &schedule{graph: sched.NewGraph()}
	if hi > pXLI {
		s.pairs = e.buildPairing(lo, hi)
	}
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
			s.graph.Dep(pred, succ)
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
		case pXLI: // DChk accumulation order; U[i] where it gives W ⟷ X
			dep(v[i], id)
			if _, links, _ := s.pairs.lists(t, i); slices.Max(links) >= 0 {
				dep(u[i], id)
			}
		case pD2D: // the octant's last DChk contribution, and its parent
			dep(firstTask(x[i], v[i]), id)
			if n.Parent != octree.NoNode {
				dep(d[n.Parent], id)
			}
		case pWLI: // and X of every source whose partial it takes
			_, _, links := s.pairs.lists(t, i)
			for k, a := range n.W {
				dep(u[a], id)
				if links[k] < -1 {
					dep(x[a], id)
				}
			}
		case pD2T: // Potential accumulation order: W, D2T, U
			dep(d[i], id)
			dep(w[i], id)
		case pULI: // and every leaf whose partial it takes
			dep(firstTask(d2t[i], w[i]), id)
			links, _, _ := s.pairs.lists(t, i)
			for k, a := range n.U {
				if links[k] < -1 {
					dep(task[pULI][a], id)
				}
			}
		}
	}

	// Each row's work, and from it a bound on the task count, so that the
	// task table and refs are laid out once.
	var work [len(phases)][][]int32
	for pi := lo; pi < hi; pi++ {
		work[pi] = e.work(&phases[pi])
		if pi == pULI {
			work[pi] = [][]int32{s.pairs.order} // in rank order
		}
	}
	n := e.taskBound(work[lo:hi], lo)
	s.graph.Grow(n)
	s.refs = make([]taskRef, 0, n)

	for pi := lo; pi < hi; pi++ {
		p := &phases[pi]
		runs := work[pi]
		if pi == pVLI && e.UseFFTM2L {
			e.compileVFFT(s, runs, u, v)
			continue
		}
		for _, run := range runs {
			for _, i := range run {
				task[pi][i] = s.add(p.name, int32(pi), i)
			}
		}
		s.flops[pi] = e.rowFlops(pi, runs)
		for _, run := range runs {
			for _, i := range run {
				after(pi, i, task[pi][i])
			}
		}
	}
	return s
}

// taskBound bounds the tasks compile adds for the rows from lo on whose work
// is work: one per entry, and on the FFT V row, whose entries are its
// targets, one group and one join per target and one spec per octant at
// most.
func (e *Engine) taskBound(work [][][]int32, lo int) int {
	n := 0
	for k, runs := range work {
		m := 0
		for _, run := range runs {
			m += len(run)
		}
		if lo+k == pVLI && e.UseFFTM2L {
			m = 2*m + len(e.Tree.Nodes)
		}
		n += m
	}
	return n
}

// noTasks returns n task slots, all empty.
func noTasks(n int) []sched.TaskID { return slices.Repeat([]sched.TaskID{sched.NoTask}, n) }

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

// compileVFFT adds the FFT-diagonalized V-list subgraph for the V row's work
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
// the engine's free list after its last consumer finishes, and the next spec
// task reuses it, so an engine holds only as many buffers as a run holds at
// once. The groups' tables are taken from the operators (Operators.vTable),
// and the row's flops counted, here.
func (e *Engine) compileVFFT(s *schedule, levels [][]int32, uTask, vTask []sched.TaskID) {
	t := e.Tree
	nn := len(t.Nodes)
	s.vFFT = e.Ops.FFT()
	s.vUses = make([]int32, nn)
	specTask := noTasks(nn)

	// Cut the targets into sibling groups: a level's targets in Morton order
	// put each parent's children side by side.
	nTrg := 0
	for _, level := range levels {
		nTrg += len(level)
	}
	members := make([]int32, 0, nTrg) // every group's targets, back to back
	for _, level := range levels {
		lo := len(members)
		members = append(members, level...)
		run := members[lo:]
		slices.SortFunc(run, func(a, b int32) int { return morton.Compare(t.Nodes[a].Key, t.Nodes[b].Key) })
		for k, first := 1, 0; k <= len(run); k++ {
			if k == len(run) || t.Nodes[run[k]].Parent != t.Nodes[run[k-1]].Parent {
				s.vGroups = append(s.vGroups, run[first:k])
				first = k
			}
		}
	}

	done := make([]sched.TaskID, len(s.vGroups)) // done[k]: groups 0..k have run
	// gated[a] is the last group task given an edge from spec(a): siblings
	// share most of their sources, and one edge per (source, group) is enough.
	gated := noTasks(nn)
	var uses int64
	for k, grp := range s.vGroups {
		for _, i := range grp {
			for _, a := range t.Nodes[i].V {
				if !e.srcNode(a) {
					continue
				}
				s.vUses[a]++
				uses++
				if specTask[a] != sched.NoTask {
					continue
				}
				specTask[a] = s.add("spec", kSpec, a)
				if uTask[a] != sched.NoTask {
					s.graph.Dep(uTask[a], specTask[a])
				}
				if k >= vWindow {
					s.graph.Dep(done[k-vWindow], specTask[a])
				}
			}
		}
		s.vTab = append(s.vTab, e.Ops.vTable(t.Nodes[grp[0]].Key.Level(), e.Workers))
		task := s.add("Vfft", kVGroup, int32(k))
		done[k] = s.add("", kJoin, -1)
		s.graph.Dep(task, done[k])
		if k > 0 {
			s.graph.Dep(done[k-1], done[k])
		}
		for _, i := range grp {
			vTask[i] = task
			for _, a := range t.Nodes[i].V {
				if e.srcNode(a) && gated[a] != task {
					gated[a] = task
					s.graph.Dep(specTask[a], task)
				}
			}
		}
	}
	s.flops[pVLI] = uses * e.vFlops()
}

// exec runs task id of the schedule being run on worker w's scratch and adds
// its time to its row's entry there: a row's time is task time summed across
// workers, not phase wall time (flops are the schedule's). The scheduler gives
// a worker index to one task at a time, so e.scratch[w] is the task's alone.
//
//fmm:hotpath
func (e *Engine) exec(w int, id sched.TaskID) {
	r := e.refs[id]
	s := e.scratch[w]
	t0 := time.Now() //fmm:allow nodeterm task timing feeds the record only; results never read it
	switch r.kind {
	case kSpec:
		e.specTask(r.i, s)
		r.kind = pVLI
	case kVGroup:
		e.vGroupTask(r.i, s)
		r.kind = pVLI
	default:
		phases[r.kind].body(e, r.i, s)
	}
	s.rows[r.kind] += int64(time.Since(t0)) //fmm:allow nodeterm task timing feeds the record only; results never read it
}

// specTask transforms source a's upward density into a spectrum buffer, one
// released before where the engine holds one.
//
//fmm:hotpath
func (e *Engine) specTask(a int32, s *evalScratch) {
	f := e.vFFT
	e.specMu.Lock()
	var sp []float64
	if n := len(e.specFree); n > 0 {
		sp, e.specFree = e.specFree[n-1], e.specFree[:n-1]
	}
	e.specMu.Unlock()
	if sp == nil {
		//fmm:allow hotalloc the engine's spectra grow to the most a run holds at once, then are reused across runs
		sp = make([]float64, f.SpecLen())
	}
	f.SourceSpectrumInto(e.U[a], sp, s.grid(f.GridLen()))
	e.spec[a] = sp
	if specHeld != nil {
		specHeld(1)
	}
}

// vGroupTask runs sibling group k's V-list body, then releases each spectrum
// it was the last consumer of: one count per mask-selected V entry, and the
// atomic decrement orders the release after every other consumer's reads.
//
//fmm:hotpath
func (e *Engine) vGroupTask(k int32, s *evalScratch) {
	grp := e.vGroups[k]
	e.vliFFTGroup(grp, e.vFFT, e.vTab[k], e.spec, s)
	for _, i := range grp {
		for _, a := range e.Tree.Nodes[i].V {
			if e.srcNode(a) && e.specRefs[a].Add(-1) == 0 {
				e.specMu.Lock()
				//fmm:allow hotalloc the free list's capacity follows the engine's spectra, which only a run holding more than any before adds
				e.specFree = append(e.specFree, e.spec[a])
				e.specMu.Unlock()
				e.spec[a] = nil
				if specHeld != nil {
					specHeld(-1)
				}
			}
		}
	}
}
