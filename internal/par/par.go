// Package par provides the bounded parallel loop used for within-rank
// shared-memory parallelism (the per-octant loop of a barrier phase,
// kifmm's runPhase). It is a thin shim over the internal/sched task runtime — one
// task per chunk of iterations — so the tree has a single worker-pool
// implementation; the task-graph evaluation path (kifmm.EvaluateDAG) uses
// the same runtime directly with real dependencies.
package par

import (
	"fmt"
	"runtime"

	"kifmm/internal/sched"
)

// For executes f(i) for i in [0, n) using at most workers goroutines.
// workers <= 1 runs inline, in order. Iterations are grouped into chunks
// (one scheduler task each) and balanced by work stealing, which handles
// the wildly different per-octant costs of adaptive trees. A panic in f
// propagates to the caller after the remaining chunks have drained.
func For(workers, n int, f func(i int)) {
	ForW(workers, n, func(_, i int) { f(i) })
}

// ForW is For with the executing worker's index passed to the body:
// f(w, i) with w in [0, max(1, min(workers, n))). Each worker index is used
// by at most one goroutine at a time, so f may address per-worker scratch
// state (reusable buffers, local flop counters) through w without locks.
func ForW(workers, n int, f func(worker, i int)) {
	if n <= 0 {
		return
	}
	if workers <= 1 || n == 1 {
		for i := 0; i < n; i++ {
			f(0, i)
		}
		return
	}
	if workers > n {
		workers = n
	}
	// Chunking amortizes the per-task overhead on big loops while keeping
	// enough tasks in flight to balance skewed workloads.
	chunk := 8
	if n/workers < 64 {
		chunk = 1
	}
	g := sched.NewGraph()
	for start := 0; start < n; start += chunk {
		lo, hi := start, start+chunk
		if hi > n {
			hi = n
		}
		g.Add("par.For", func(w int) {
			for i := lo; i < hi; i++ {
				f(w, i)
			}
		})
	}
	if _, err := g.Run(sched.Options{Workers: workers}); err != nil {
		panic(fmt.Sprintf("par.For: %v", err))
	}
}

// DefaultWorkers returns a sensible worker count for CPU-bound loops.
func DefaultWorkers() int { return runtime.GOMAXPROCS(0) }
