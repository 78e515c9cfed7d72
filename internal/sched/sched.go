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
// A Graph is structure only — each task's name, predecessor count and
// successors — and a run only reads it: Run takes the one function that
// executes a task by its ID, and keeps its dependency counters, ready stack
// and stats to itself. So a graph is built once and run any number of times,
// concurrently too: the FMM engine compiles each plan's graph once and runs
// it on every evaluation, and For runs a loop's chunks the same way.
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
	"slices"
	"sync"
	"sync/atomic"
	"time"
	"unsafe"
)

// TaskID names a task within one Graph.
type TaskID int32

// NoTask is returned by helpers that may not create a task.
const NoTask = TaskID(-1)

type task struct {
	name string // "" for a synchronization point
	// deps is the predecessor count: a run's counter for the task starts
	// here and the task is runnable when it reaches zero.
	deps, nsucc int32
}

// Graph is a dependency graph's structure: Add tasks, declare Deps, then Run
// it any number of times, concurrently too — a run keeps its counters and
// ready stack to itself, and what a task does is the exec function of the
// run. Do not add tasks or edges while the graph runs. The zero value is an
// empty graph.
type Graph struct {
	tasks []task
	edges [][]edge // the Deps declared, in order, until the graph is laid out
	// Laid out once, by the first Run or MemoryBytes: task id's successors
	// are succ[off[id]:off[id+1]], in the order their Deps were declared.
	once sync.Once
	off  []int32
	succ []TaskID
}

type edge struct{ pred, succ TaskID }

const edgeBlock = 4096 // edges per block of Graph.edges (32 KiB): Dep never copies a full one

// NewGraph returns an empty graph.
func NewGraph() *Graph { return &Graph{} }

// Len returns the number of tasks added so far.
func (g *Graph) Len() int { return len(g.tasks) }

// Add registers a task and returns its ID. name labels the task in traces
// (use a small set of static strings; per-task identity is the ID). An empty
// name adds a synchronization point: a task that completes once its
// predecessors have, with no exec call and no trace event.
func (g *Graph) Add(name string) TaskID {
	g.tasks = append(g.tasks, task{name: name})
	return TaskID(len(g.tasks) - 1)
}

// Dep declares that succ must not start before pred completes. Edges point
// forward only: pred must have been added before succ, so a graph cannot
// hold a cycle and Dep panics on a backward or self edge, and on any edge
// once the graph has been laid out. Duplicate edges are allowed (each one
// counts; predecessors decrement per edge).
func (g *Graph) Dep(pred, succ TaskID) {
	if pred >= succ {
		panic(fmt.Sprintf("sched: Dep(%d, %d) does not point forward: a task may only wait on tasks added before it", pred, succ))
	}
	if g.off != nil {
		panic(fmt.Sprintf("sched: Dep(%d, %d) after the graph was laid out", pred, succ))
	}
	if n := len(g.edges); n == 0 || len(g.edges[n-1]) == edgeBlock {
		g.edges = append(g.edges, make([]edge, 0, edgeBlock))
	}
	g.edges[len(g.edges)-1] = append(g.edges[len(g.edges)-1], edge{pred, succ})
	g.tasks[pred].nsucc++
	g.tasks[succ].deps++
}

// layOut turns the declared edges into the successor array, once.
func (g *Graph) layOut() {
	g.once.Do(func() {
		g.off = make([]int32, len(g.tasks)+1)
		for id, t := range g.tasks {
			g.off[id+1] = g.off[id] + t.nsucc
		}
		g.succ = make([]TaskID, g.off[len(g.tasks)])
		next := slices.Clone(g.off[:len(g.tasks)])
		for _, block := range g.edges {
			for _, e := range block {
				g.succ[next[e.pred]] = e.succ
				next[e.pred]++
			}
		}
		g.edges = nil
	})
}

// Successors returns the tasks that wait on id, in the order their Deps were
// declared, laying the graph out. The slice is the graph's: read it only.
func (g *Graph) Successors(id TaskID) []TaskID {
	g.layOut()
	return g.succ[g.off[id]:g.off[id+1]]
}

// MemoryBytes is what the graph holds, laid out: its task table and
// successor array (task names are static strings, not counted).
func (g *Graph) MemoryBytes() int64 {
	g.layOut()
	return int64(cap(g.tasks))*int64(unsafe.Sizeof(task{})) + 4*int64(cap(g.off)+cap(g.succ))
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

// runner is one run's state: the graph is only read.
type runner struct {
	g     *Graph
	exec  func(worker int, id TaskID)
	trace *Trace

	// deps[id] counts task id's predecessors still to complete.
	deps []atomic.Int32

	// mu guards stack, idlers and done; cond parks idle workers.
	mu     sync.Mutex
	cond   sync.Cond
	stack  []runnable
	idlers int
	done   bool

	completed atomic.Int64
	total     int64

	// failed flips on the first panic or on cancellation; the drain then
	// skips exec. err is the first cause, set once.
	failed  atomic.Bool
	failOne sync.Once
	err     error

	stats []Stats // one per worker
}

// Run executes the graph, calling exec(worker, id) for every task but the
// synchronization points, and blocks until every task has completed, an exec
// call has panicked (the panic is captured and returned as an error after the
// graph drains), or ctx is done (the graph drains the same way and the error
// wraps ctx.Err(); calls already running finish). worker is the index of the
// executing worker, in [0, workers) for the clamped worker count: at most one
// task runs on a worker index at a time, so exec may address per-worker
// scratch state — reusable buffers, local counters folded after the run —
// without locks or allocation. A context that can never be done costs
// nothing.
func (g *Graph) Run(ctx context.Context, opt Options, exec func(worker int, id TaskID)) (Stats, error) {
	t0 := time.Now() //fmm:allow nodeterm wall-clock is reported in Stats only; task results never read it
	g.layOut()
	if len(g.tasks) == 0 {
		//fmm:allow nodeterm wall-clock is reported in Stats only; task results never read it
		return Stats{Wall: time.Since(t0)}, nil
	}
	workers := opt.Workers
	if workers <= 0 {
		workers = DefaultWorkers()
	}
	workers = min(workers, len(g.tasks))
	r := &runner{
		g:     g,
		exec:  exec,
		trace: opt.Trace,
		deps:  make([]atomic.Int32, len(g.tasks)),
		total: int64(len(g.tasks)),
		stats: make([]Stats, workers),
	}
	r.cond.L = &r.mu
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

	// Arm the counters and seed the stack with the tasks that have no
	// predecessor, last added at the bottom, so they pop in insertion order.
	for i := len(g.tasks) - 1; i >= 0; i-- {
		if d := g.tasks[i].deps; d > 0 {
			r.deps[i].Store(d)
		} else {
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

// DefaultWorkers is the worker count of Options.Workers <= 0: GOMAXPROCS.
//
//fmm:allow nodeterm worker-count default; reductions are plan-sequenced, results are identical for any worker count
func DefaultWorkers() int { return runtime.GOMAXPROCS(0) }

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

// execute runs one task (unless the graph has failed or the task is a
// synchronization point), records trace and stats, and releases successors.
func (r *runner) execute(w int, rt runnable) {
	id := rt.id
	t := &r.g.tasks[id]
	if !r.failed.Load() && t.name != "" {
		func() {
			defer func() {
				if p := recover(); p != nil {
					r.fail(fmt.Errorf("sched: task %d (%s) panicked: %v", id, t.name, p))
				}
			}()
			if r.trace != nil {
				start := time.Now() //fmm:allow nodeterm trace timestamps are diagnostic output only
				r.exec(w, id)
				//fmm:allow nodeterm trace timestamps are diagnostic output only
				r.trace.add(w, t.name, int32(id), start, time.Since(start))
			} else {
				r.exec(w, id)
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
	for _, s := range r.g.succ[r.g.off[id]:r.g.off[id+1]] {
		if r.deps[s].Add(-1) == 0 {
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

// For executes f(i) for i in [0, n) using at most workers goroutines, as a
// graph of independent chunks of iterations run by Run; workers <= 1 runs
// inline, in order. Idle workers pop chunks from the shared ready stack,
// which balances the wildly different per-item costs of adaptive trees. A
// panic in f propagates to the caller after the remaining chunks have
// drained. It is the plan-time and device-simulation loop: translation
// tables, direct sums, simulated thread blocks.
func For(workers, n int, f func(i int)) {
	if workers <= 1 || n <= 1 {
		for i := 0; i < n; i++ {
			f(i)
		}
		return
	}
	workers = min(workers, n)
	// Chunking amortizes the per-task overhead on big loops while keeping
	// enough tasks in flight to balance skewed workloads.
	chunk := 8
	if n/workers < 64 {
		chunk = 1
	}
	g := &Graph{tasks: make([]task, (n+chunk-1)/chunk)}
	for k := range g.tasks {
		g.tasks[k].name = "sched.For"
	}
	_, err := g.Run(context.Background(), Options{Workers: workers}, func(_ int, id TaskID) {
		lo := int(id) * chunk
		for i := lo; i < min(lo+chunk, n); i++ {
			f(i)
		}
	})
	if err != nil {
		panic(fmt.Sprintf("sched.For: %v", err))
	}
}
