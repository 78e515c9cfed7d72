// Package par provides the bounded parallel loop used for plan-time and
// device-simulation parallelism (translation tables, direct sums, simulated
// thread blocks). It is a thin shim over the internal/sched task runtime — one
// task per chunk of iterations — so the tree has a single worker-pool
// implementation; the evaluation (kifmm.EvaluateDAG) uses the same runtime
// directly with real dependencies.
package par

import (
	"context"
	"fmt"
	"runtime"

	"kifmm/internal/sched"
)

// For executes f(i) for i in [0, n) using at most workers goroutines.
// workers <= 1 runs inline, in order. Iterations are grouped into chunks
// (one scheduler task each) that idle workers pop from the scheduler's
// shared ready stack, which balances the wildly different per-item costs of
// adaptive trees. A panic in f propagates to the caller after the remaining
// chunks have drained.
func For(workers, n int, f func(i int)) {
	if n <= 0 {
		return
	}
	if workers <= 1 || n == 1 {
		for i := 0; i < n; i++ {
			f(i)
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
		g.Add("par.For", func(int) {
			for i := lo; i < hi; i++ {
				f(i)
			}
		})
	}
	if _, err := g.Run(context.Background(), sched.Options{Workers: workers}); err != nil {
		panic(fmt.Sprintf("par.For: %v", err))
	}
}

// DefaultWorkers returns a sensible worker count for CPU-bound loops.
func DefaultWorkers() int { return runtime.GOMAXPROCS(0) }
