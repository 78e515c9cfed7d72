// Package sched is a dependency-driven task runtime for the FMM evaluation
// phases: a task graph executed by a fixed set of workers with per-worker
// work-stealing deques.
//
// A task becomes runnable when its last predecessor completes (atomic
// dependency counters, no locks on the completion fast path). Runnable
// successors are pushed onto the finishing worker's own deque, so a worker
// naturally chases the dependency chain it is already executing — the
// critical-path locality that Agullo et al. exploit when pipelining the FMM
// over a runtime system. Idle workers steal half a victim's deque from the
// cold (FIFO) end, which hands over the oldest — typically widest — subtree.
// Nothing else orders runnable tasks: the tasks with no predecessor are dealt
// to the deques in insertion order, and there are no priorities — every other
// task lands on its releasing worker's deque whatever it is, so a priority
// could only order that initial set (DESIGN.md §7.2 has the measurement).
//
// A panicking task fails the whole graph instead of deadlocking it: the
// remaining tasks are drained without running their bodies, every worker
// exits, and Run returns the captured panic as an error.
package sched

import (
	"fmt"
	"math/rand"
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
	tasks   []task
	started bool
}

// NewGraph returns an empty graph.
func NewGraph() *Graph { return &Graph{} }

// Len returns the number of tasks added so far.
func (g *Graph) Len() int { return len(g.tasks) }

// Add registers a task and returns its ID. name labels the task in traces
// (use a small set of static strings; per-task identity is the ID). fn
// receives the index of the worker that runs it (in [0, workers) for the
// clamped worker count of Run), which bodies use to address per-worker
// scratch state — reusable buffers and local counters flushed after the run —
// without locks or allocation; it may be nil for pure synchronization points.
func (g *Graph) Add(name string, fn func(worker int)) TaskID {
	if g.started {
		panic("sched: Add after Run")
	}
	g.tasks = append(g.tasks, task{name: name, fn: fn})
	return TaskID(len(g.tasks) - 1)
}

// Dep declares that succ must not start before pred completes. Duplicate
// edges are allowed (each one counts; predecessors decrement per edge).
func (g *Graph) Dep(pred, succ TaskID) {
	if g.started {
		panic("sched: Dep after Run")
	}
	if pred == succ {
		panic("sched: self-dependency")
	}
	g.tasks[pred].succs = append(g.tasks[pred].succs, succ)
	g.tasks[succ].deps.Add(1)
}

// WorkerStats is one worker's execution counters.
type WorkerStats struct {
	// Tasks is the number of task bodies this worker ran.
	Tasks int64
	// Steals counts successful steal operations (each may transfer
	// several tasks); Stolen is the total tasks transferred.
	Steals int64
	Stolen int64
	// Idle is time spent parked or scanning for work without finding any.
	Idle time.Duration
}

// Stats aggregates a Run.
type Stats struct {
	// Tasks is the number of tasks executed (== graph size on success).
	Tasks int64
	// Steals and Stolen sum the per-worker counters.
	Steals int64
	Stolen int64
	// Idle sums per-worker idle time.
	Idle time.Duration
	// Wall is the elapsed time of Run.
	Wall time.Duration
	// PerWorker has one entry per worker.
	PerWorker []WorkerStats
}

// Add accumulates another Run's counters into s, worker by worker.
func (s *Stats) Add(o Stats) {
	s.Tasks += o.Tasks
	s.Steals += o.Steals
	s.Stolen += o.Stolen
	s.Idle += o.Idle
	s.Wall += o.Wall
	for len(s.PerWorker) < len(o.PerWorker) {
		s.PerWorker = append(s.PerWorker, WorkerStats{})
	}
	for w, ws := range o.PerWorker {
		p := &s.PerWorker[w]
		p.Tasks += ws.Tasks
		p.Steals += ws.Steals
		p.Stolen += ws.Stolen
		p.Idle += ws.Idle
	}
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

// deque is one worker's task store. The owner pushes and pops at the tail
// (LIFO, depth-first along dependency chains); thieves take from the head
// (FIFO, the oldest work). A mutex keeps it simple and race-free; steals
// are rare enough that contention is negligible at per-octant task grain.
type deque struct {
	mu   sync.Mutex
	buf  []TaskID
	size atomic.Int32 // mirrored length, read lock-free by idle scans
}

//fmm:hotpath
func (d *deque) push(id TaskID) {
	d.mu.Lock()
	d.buf = append(d.buf, id) //fmm:allow hotalloc amortized deque growth, buffer reused across tasks
	d.size.Store(int32(len(d.buf)))
	d.mu.Unlock()
}

//fmm:hotpath
func (d *deque) pop() (TaskID, bool) {
	d.mu.Lock()
	n := len(d.buf)
	if n == 0 {
		d.mu.Unlock()
		return 0, false
	}
	id := d.buf[n-1]
	d.buf = d.buf[:n-1]
	d.size.Store(int32(n - 1))
	d.mu.Unlock()
	return id, true
}

// stealHalf removes up to half of the deque from the head into out.
//
//fmm:hotpath
func (d *deque) stealHalf(out []TaskID) []TaskID {
	d.mu.Lock()
	n := len(d.buf)
	if n == 0 {
		d.mu.Unlock()
		return out
	}
	k := (n + 1) / 2
	// The two appends below: amortized growth of the thief's reusable batch
	// buffer, and a compacting reslice into buf's own backing array.
	out = append(out, d.buf[:k]...) //fmm:allow hotalloc amortized reuse, covers the compaction below too
	d.buf = append(d.buf[:0], d.buf[k:]...)

	d.size.Store(int32(len(d.buf)))
	d.mu.Unlock()
	return out
}

type runner struct {
	g       *Graph
	deques  []deque
	workers int
	trace   *Trace

	// mu guards idlers and done; cond parks idle workers.
	mu     sync.Mutex
	cond   *sync.Cond
	idlers int
	done   bool

	completed atomic.Int64
	total     int64

	// failed flips on the first panic; the drain then skips task bodies.
	failed   atomic.Bool
	panicOne sync.Once
	panicErr error

	stats []WorkerStats
}

// Run executes the graph and blocks until every task has completed, a task
// has panicked (the panic is captured and returned as an error after the
// graph drains), or a dependency cycle is detected up front. A graph can
// be run only once.
func (g *Graph) Run(opt Options) (Stats, error) {
	if g.started {
		return Stats{}, fmt.Errorf("sched: graph already run")
	}
	g.started = true
	t0 := time.Now() //fmm:allow nodeterm wall-clock is reported in Stats only; task results never read it
	if len(g.tasks) == 0 {
		//fmm:allow nodeterm wall-clock is reported in Stats only; task results never read it
		return Stats{Wall: time.Since(t0)}, nil
	}
	if err := g.checkAcyclic(); err != nil {
		return Stats{}, err
	}
	workers := opt.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0) //fmm:allow nodeterm worker-count default; reductions are plan-sequenced, results are identical for any worker count
	}
	if workers > len(g.tasks) {
		workers = len(g.tasks)
	}
	r := &runner{
		g:       g,
		deques:  make([]deque, workers),
		workers: workers,
		trace:   opt.Trace,
		total:   int64(len(g.tasks)),
		stats:   make([]WorkerStats, workers),
	}
	r.cond = sync.NewCond(&r.mu)
	if r.trace != nil {
		r.trace.start(workers)
	}

	// Seed the ready set: initial tasks go round-robin to the worker
	// deques in insertion order. Remaining imbalance is the work
	// stealing's job.
	ready := 0
	for i := range g.tasks {
		if g.tasks[i].deps.Load() == 0 {
			r.deques[ready%workers].push(TaskID(i))
			ready++
		}
	}

	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer wg.Done()
			r.work(w)
		}(w)
	}
	wg.Wait()

	var st Stats
	st.PerWorker = r.stats
	for _, ws := range r.stats {
		st.Tasks += ws.Tasks
		st.Steals += ws.Steals
		st.Stolen += ws.Stolen
		st.Idle += ws.Idle
	}
	st.Wall = time.Since(t0) //fmm:allow nodeterm wall-clock is reported in Stats only; task results never read it
	if r.trace != nil {
		r.trace.finish()
	}
	return st, r.panicErr
}

// checkAcyclic runs Kahn's algorithm on a copy of the dependency counters.
func (g *Graph) checkAcyclic() error {
	deg := make([]int32, len(g.tasks))
	var queue []TaskID
	for i := range g.tasks {
		deg[i] = g.tasks[i].deps.Load()
		if deg[i] == 0 {
			queue = append(queue, TaskID(i))
		}
	}
	seen := 0
	for len(queue) > 0 {
		id := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		seen++
		for _, s := range g.tasks[id].succs {
			deg[s]--
			if deg[s] == 0 {
				queue = append(queue, s)
			}
		}
	}
	if seen != len(g.tasks) {
		return fmt.Errorf("sched: dependency cycle (%d of %d tasks reachable)", seen, len(g.tasks))
	}
	return nil
}

func (r *runner) work(w int) {
	rng := rand.New(rand.NewSource(int64(w)*0x9e3779b9 + 1)) //fmm:allow nodeterm steal-victim randomization affects the schedule only; results combine through plan-sequenced reductions
	var stolen []TaskID
	for {
		id, ok := r.deques[w].pop()
		if !ok {
			id, ok = r.findWork(w, rng, &stolen)
			if !ok {
				return
			}
		}
		r.execute(w, id)
	}
}

// findWork looks beyond the local deque: steal sweeps over the other
// workers, then parking. It returns false when the
// graph has drained.
func (r *runner) findWork(w int, rng *rand.Rand, stolen *[]TaskID) (TaskID, bool) {
	idle0 := time.Now() //fmm:allow nodeterm idle time is reported in Stats only; task results never read it
	defer func() { r.stats[w].Idle += time.Since(idle0) }()
	for {
		// One full randomized sweep over potential victims.
		base := rng.Intn(r.workers) //fmm:allow nodeterm steal-victim randomization affects the schedule only; results combine through plan-sequenced reductions
		for k := 0; k < r.workers; k++ {
			v := (base + k) % r.workers
			if v == w || r.deques[v].size.Load() == 0 {
				continue
			}
			*stolen = r.deques[v].stealHalf((*stolen)[:0])
			if n := len(*stolen); n > 0 {
				r.stats[w].Steals++
				r.stats[w].Stolen += int64(n)
				// Keep the first, publish the rest locally (they
				// become visible to other thieves again).
				for _, id := range (*stolen)[1:] {
					r.deques[w].push(id)
				}
				if n > 1 {
					r.signal()
				}
				return (*stolen)[0], true
			}
		}
		// Nothing visible: park until a producer signals or the graph
		// drains. Re-check under the lock to avoid lost wakeups.
		r.mu.Lock()
		for {
			if r.done {
				r.mu.Unlock()
				return 0, false
			}
			if r.anyDequeWork(w) {
				break
			}
			r.idlers++
			r.cond.Wait()
			r.idlers--
		}
		r.mu.Unlock()
	}
}

// anyDequeWork reports whether any other worker's deque looks non-empty.
func (r *runner) anyDequeWork(w int) bool {
	for v := range r.deques {
		if v != w && r.deques[v].size.Load() > 0 {
			return true
		}
	}
	return false
}

// signal wakes one parked worker, if any.
func (r *runner) signal() {
	r.mu.Lock()
	if r.idlers > 0 {
		r.cond.Signal()
	}
	r.mu.Unlock()
}

// execute runs one task body (unless the graph has failed), records trace
// and stats, and releases successors.
func (r *runner) execute(w int, id TaskID) {
	t := &r.g.tasks[id]
	if !r.failed.Load() && t.fn != nil {
		func() {
			defer func() {
				if p := recover(); p != nil {
					r.panicOne.Do(func() {
						r.panicErr = fmt.Errorf("sched: task %d (%s) panicked: %v", id, t.name, p)
					})
					r.failed.Store(true)
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
	r.stats[w].Tasks++

	// Release successors. Newly runnable tasks go to this worker's deque
	// (chain locality); other parked workers are woken when more than one
	// unlocks at once.
	released := 0
	for _, s := range t.succs {
		if r.g.tasks[s].deps.Add(-1) == 0 {
			r.deques[w].push(s)
			released++
		}
	}
	if released > 1 {
		r.signal()
	}

	if r.completed.Add(1) == r.total {
		r.mu.Lock()
		r.done = true
		r.cond.Broadcast()
		r.mu.Unlock()
	}
}
