// Package sched is a dependency-driven task runtime for the FMM evaluation
// phases: a task graph executed by a fixed set of workers that share one
// LIFO stack of runnable tasks.
//
// A task becomes runnable when its last predecessor completes (atomic
// dependency counters, no locks on the completion fast path). The finishing
// worker pushes the successors it released onto the stack and pops the
// newest task next, so a worker naturally chases the dependency chain it is
// already executing — the critical-path locality that Agullo et al. exploit
// when pipelining the FMM over a runtime system. A worker that finds the
// stack empty parks until a push wakes it. Nothing else orders runnable
// tasks: the tasks with no predecessor are seeded so that they pop in
// insertion order, and there are no priorities (DESIGN.md §7.2 has the
// measurement).
//
// Dependencies point forward only — a task waits on tasks added before it —
// so every graph is acyclic by construction and insertion order is a
// topological order.
//
// A panicking task fails the whole graph instead of deadlocking it: the
// remaining tasks are drained without running their bodies, every worker
// exits, and Run returns the captured panic as an error. A done context is
// the same exit: Run's context, once done, fails the graph as a panic does,
// so no body starts after it and Run returns an error wrapping ctx.Err().
package sched

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// TaskID names a task within one Graph.
type TaskID int32

// NoTask is returned by helpers that may not create a task.
const NoTask = TaskID(-1)

type task struct {
	name string
	fn   func(worker int)
	// deps is the remaining-predecessor count; the task is runnable when
	// it reaches zero. Set at Add/Dep time, decremented atomically as
	// predecessors complete; atomic.Int32 so graph construction and the
	// workers' decrements can never mix plain and atomic access.
	deps  atomic.Int32
	succs []TaskID
}

// Graph is a single-use dependency graph: Add tasks, declare Deps, Run
// once. The zero value is not usable; call NewGraph.
type Graph struct {
	tasks []task
	// slab is where successor lists grow: a list that fills its window
	// moves to one twice the size carved from the slab, so declaring edges
	// allocates a chunk at a time instead of a slice per task and growth.
	slab    []TaskID
	started bool
}

// slabChunk is the successor slab's allocation unit, in task IDs.
const slabChunk = 4096

// NewGraph returns an empty graph.
func NewGraph() *Graph { return &Graph{} }

// Len returns the number of tasks added so far.
func (g *Graph) Len() int { return len(g.tasks) }

// Add registers a task and returns its ID. name labels the task in traces
// (use a small set of static strings; per-task identity is the ID). fn
// receives the index of the worker that runs it (in [0, workers) for the
// clamped worker count of Run), which bodies use to address per-worker
// scratch state — reusable buffers and local counters folded after the run —
// without locks or allocation; it may be nil for pure synchronization points.
func (g *Graph) Add(name string, fn func(worker int)) TaskID {
	if g.started {
		panic("sched: Add after Run")
	}
	g.tasks = append(g.tasks, task{name: name, fn: fn})
	return TaskID(len(g.tasks) - 1)
}

// Dep declares that succ must not start before pred completes. Edges point
// forward only: pred must have been added before succ, so a graph cannot
// hold a cycle and Dep panics on a backward or self edge. Duplicate edges
// are allowed (each one counts; predecessors decrement per edge).
func (g *Graph) Dep(pred, succ TaskID) {
	if g.started {
		panic("sched: Dep after Run")
	}
	if pred >= succ {
		panic(fmt.Sprintf("sched: Dep(%d, %d) does not point forward: a task may only wait on tasks added before it", pred, succ))
	}
	t := &g.tasks[pred]
	if len(t.succs) == cap(t.succs) {
		t.succs = g.grow(t.succs)
	}
	t.succs = append(t.succs, succ)
	g.tasks[succ].deps.Add(1)
}

// grow moves a full successor list to a window of twice its capacity (two
// at least) at the slab's tail, starting a new chunk where the tail is too
// short; the list's old window is left behind, as a slice's old array is.
func (g *Graph) grow(s []TaskID) []TaskID {
	n := max(2, 2*cap(s))
	if cap(g.slab)-len(g.slab) < n {
		g.slab = make([]TaskID, 0, max(slabChunk, n))
	}
	lo := len(g.slab)
	g.slab = g.slab[:lo+n]
	return append(g.slab[lo:lo:lo+n], s...)
}

// Stats aggregates a Run; the runner keeps one per worker while it runs and
// returns their sum.
type Stats struct {
	// Tasks is the number of tasks executed (== graph size on success).
	Tasks int64
	// Steals counts handoffs: tasks run by a worker other than the one that
	// released them (a task seeded at Run has no releasing worker). Stolen
	// always equals Steals; it stays for readers of the older field.
	Steals int64
	Stolen int64
	// Idle sums per-worker time parked on an empty stack.
	Idle time.Duration
	// Wall is the elapsed time of Run.
	Wall time.Duration
}

// Add accumulates another Run's counters into s.
func (s *Stats) Add(o Stats) {
	s.Tasks += o.Tasks
	s.Steals += o.Steals
	s.Stolen += o.Stolen
	s.Idle += o.Idle
	s.Wall += o.Wall
}

// Options configures one Run.
type Options struct {
	// Workers is the number of executing goroutines (<=0 means
	// GOMAXPROCS). Workers==1 still goes through the scheduler, which
	// yields a deterministic execution order.
	Workers int
	// Trace, when non-nil, receives one complete event per task (Chrome
	// trace_event format; see Trace.JSON).
	Trace *Trace
}

// runnable is one stack entry: a task and the worker that released it
// (-1 for a task seeded at Run).
type runnable struct {
	id TaskID
	by int32
}

type runner struct {
	g     *Graph
	trace *Trace

	// mu guards stack, idlers and done; cond parks idle workers.
	mu     sync.Mutex
	cond   *sync.Cond
	stack  []runnable
	idlers int
	done   bool

	completed atomic.Int64
	total     int64

	// failed flips on the first panic or on cancellation; the drain then
	// skips task bodies. err is the first cause, set once.
	failed  atomic.Bool
	failOne sync.Once
	err     error

	stats []Stats // one per worker
}

// Run executes the graph and blocks until every task has completed, a task
// has panicked (the panic is captured and returned as an error after the
// graph drains), or ctx is done (the graph drains the same way and the error
// wraps ctx.Err(); bodies already running finish). A context that can never
// be done costs nothing. A graph can be run only once.
func (g *Graph) Run(ctx context.Context, opt Options) (Stats, error) {
	if g.started {
		return Stats{}, fmt.Errorf("sched: graph already run")
	}
	g.started = true
	t0 := time.Now() //fmm:allow nodeterm wall-clock is reported in Stats only; task results never read it
	if len(g.tasks) == 0 {
		//fmm:allow nodeterm wall-clock is reported in Stats only; task results never read it
		return Stats{Wall: time.Since(t0)}, nil
	}
	workers := opt.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0) //fmm:allow nodeterm worker-count default; reductions are plan-sequenced, results are identical for any worker count
	}
	if workers > len(g.tasks) {
		workers = len(g.tasks)
	}
	r := &runner{
		g:     g,
		trace: opt.Trace,
		total: int64(len(g.tasks)),
		stats: make([]Stats, workers),
	}
	r.cond = sync.NewCond(&r.mu)
	if ctx.Done() != nil {
		// A context done already fails the graph before any body can start;
		// one done later fails it from AfterFunc's goroutine.
		cancelled := func() { r.fail(fmt.Errorf("sched: graph cancelled: %w", ctx.Err())) }
		if ctx.Err() != nil {
			cancelled()
		} else {
			defer context.AfterFunc(ctx, cancelled)()
		}
	}
	if r.trace != nil {
		r.trace.start(workers)
	}

	// Seed the stack with the tasks that have no predecessor, last added
	// at the bottom, so they pop in insertion order.
	for i := len(g.tasks) - 1; i >= 0; i-- {
		if g.tasks[i].deps.Load() == 0 {
			r.stack = append(r.stack, runnable{id: TaskID(i), by: -1})
		}
	}

	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer wg.Done()
			for {
				t, ok := r.next(w)
				if !ok {
					return
				}
				r.execute(w, t)
			}
		}(w)
	}
	wg.Wait()

	var st Stats
	for _, ws := range r.stats {
		st.Add(ws)
	}
	st.Wall = time.Since(t0) //fmm:allow nodeterm wall-clock is reported in Stats only; task results never read it
	if r.trace != nil {
		r.trace.finish()
	}
	// Close the failure record: this waits out a cancellation that fired
	// while the workers were exiting and ignores any later one.
	r.failOne.Do(func() {})
	return st, r.err
}

// fail records the graph's first failure and turns the rest of the run into
// a drain.
func (r *runner) fail(err error) {
	r.failOne.Do(func() { r.err = err })
	r.failed.Store(true)
}

// next pops the newest runnable task for worker w, parking while the stack
// is empty. It returns false once the graph has drained.
func (r *runner) next(w int) (runnable, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for len(r.stack) == 0 {
		if r.done {
			return runnable{}, false
		}
		r.idlers++
		idle0 := time.Now() //fmm:allow nodeterm idle time is reported in Stats only; task results never read it
		r.cond.Wait()
		r.stats[w].Idle += time.Since(idle0) //fmm:allow nodeterm idle time is reported in Stats only; task results never read it
		r.idlers--
	}
	n := len(r.stack) - 1
	t := r.stack[n]
	r.stack = r.stack[:n]
	return t, true
}

// execute runs one task body (unless the graph has failed), records trace
// and stats, and releases successors.
func (r *runner) execute(w int, rt runnable) {
	id := rt.id
	t := &r.g.tasks[id]
	if !r.failed.Load() && t.fn != nil {
		func() {
			defer func() {
				if p := recover(); p != nil {
					r.fail(fmt.Errorf("sched: task %d (%s) panicked: %v", id, t.name, p))
				}
			}()
			if r.trace != nil {
				start := time.Now() //fmm:allow nodeterm trace timestamps are diagnostic output only
				t.fn(w)
				//fmm:allow nodeterm trace timestamps are diagnostic output only
				r.trace.add(w, t.name, int32(id), start, time.Since(start))
			} else {
				t.fn(w)
			}
		}()
	}
	ws := &r.stats[w]
	ws.Tasks++
	if rt.by >= 0 && int(rt.by) != w {
		ws.Steals++
		ws.Stolen++
	}

	// Release successors onto the stack; the last one pushed is this
	// worker's next task unless another worker pops it first. Every
	// successor beyond the first wakes one parked worker.
	released := 0
	for _, s := range t.succs {
		if r.g.tasks[s].deps.Add(-1) == 0 {
			if released == 0 {
				r.mu.Lock()
			}
			r.stack = append(r.stack, runnable{id: s, by: int32(w)})
			released++
		}
	}
	if released > 0 {
		for k := min(released-1, r.idlers); k > 0; k-- {
			r.cond.Signal()
		}
		r.mu.Unlock()
	}

	if r.completed.Add(1) == r.total {
		r.mu.Lock()
		r.done = true
		r.cond.Broadcast()
		r.mu.Unlock()
	}
}
