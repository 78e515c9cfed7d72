package sched

import (
	"context"
	"encoding/json"
	"errors"
	"math/rand"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"kifmm/internal/goleak"
)

// TestRandomDAGProperty builds random layered DAGs and checks the two
// scheduler invariants: every task runs exactly once, and never before all
// of its predecessors have finished.
func TestRandomDAGProperty(t *testing.T) {
	for _, workers := range []int{1, 2, 4, 8} {
		for trial := 0; trial < 6; trial++ {
			rng := rand.New(rand.NewSource(int64(workers*100 + trial)))
			nLayers := 2 + rng.Intn(5)
			perLayer := 1 + rng.Intn(40)

			g := NewGraph()
			var layers [][]TaskID
			runs := make(map[TaskID]*atomic.Int32)
			done := make(map[TaskID]*atomic.Bool)
			preds := make(map[TaskID][]TaskID)

			for l := 0; l < nLayers; l++ {
				var layer []TaskID
				for k := 0; k < perLayer; k++ {
					r := &atomic.Int32{}
					d := &atomic.Bool{}
					var id TaskID
					id = g.Add("t", func(int) {
						for _, p := range preds[id] {
							if !done[p].Load() {
								t.Errorf("task %d ran before predecessor %d", id, p)
							}
						}
						r.Add(1)
						d.Store(true)
					})
					runs[id], done[id] = r, d
					if l > 0 {
						// Random edges from earlier layers.
						for e := 0; e < 1+rng.Intn(3); e++ {
							src := layers[rng.Intn(l)]
							p := src[rng.Intn(len(src))]
							g.Dep(p, id)
							preds[id] = append(preds[id], p)
						}
					}
					layer = append(layer, id)
				}
				layers = append(layers, layer)
			}

			st, err := g.Run(context.Background(), Options{Workers: workers})
			if err != nil {
				t.Fatalf("workers=%d trial=%d: %v", workers, trial, err)
			}
			if st.Tasks != int64(g.Len()) {
				t.Fatalf("stats report %d tasks, graph has %d", st.Tasks, g.Len())
			}
			for id, r := range runs {
				if r.Load() != 1 {
					t.Fatalf("task %d ran %d times", id, r.Load())
				}
			}
		}
	}
}

// TestPanicFailsGraph checks that a panicking task surfaces as an error,
// that tasks downstream of the panic are skipped, and that no worker
// goroutines are left behind.
func TestPanicFailsGraph(t *testing.T) {
	before := runtime.NumGoroutine()
	g := NewGraph()
	var after atomic.Int32
	a := g.Add("ok", func(int) {})
	b := g.Add("boom", func(int) { panic("kaboom") })
	c := g.Add("down", func(int) { after.Add(1) })
	g.Dep(a, b)
	g.Dep(b, c)

	_, err := g.Run(context.Background(), Options{Workers: 4})
	if err == nil || !strings.Contains(err.Error(), "kaboom") {
		t.Fatalf("want panic error, got %v", err)
	}
	if after.Load() != 0 {
		t.Fatalf("task downstream of the panic ran")
	}
	// All workers must have exited; allow the runtime a moment to reap.
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > before {
		t.Fatalf("goroutines leaked: %d before, %d after", before, n)
	}
}

// TestRunCancelled checks cancellation, the panic drain's other entry: a
// context done before Run runs no body; a context cancelled by a running body
// lets that body finish but starts no other once the cancellation has fired,
// and Run's error wraps context.Canceled; no worker or AfterFunc goroutine
// outlives Run.
func TestRunCancelled(t *testing.T) {
	defer goleak.Check(t)()
	for _, workers := range []int{1, 4} {
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		g := NewGraph()
		var ran atomic.Int32
		for i := 0; i < 100; i++ {
			g.Add("t", func(int) { ran.Add(1) })
		}
		st, err := g.Run(ctx, Options{Workers: workers})
		if !errors.Is(err, context.Canceled) || ran.Load() != 0 || st.Tasks != 100 {
			t.Fatalf("workers=%d, cancelled before Run: err %v, %d bodies ran, %d tasks drained", workers, err, ran.Load(), st.Tasks)
		}

		// The first task cancels and gives AfterFunc's goroutine time to
		// fail the graph; nothing downstream may start after that.
		ctx, cancel = context.WithCancel(context.Background())
		g = NewGraph()
		ran.Store(0)
		var finished atomic.Bool
		first := g.Add("cancel", func(int) {
			cancel()
			time.Sleep(100 * time.Millisecond)
			finished.Store(true)
		})
		for i := 0; i < 1000; i++ {
			id := g.Add("t", func(int) { ran.Add(1) })
			g.Dep(first, id)
		}
		_, err = g.Run(ctx, Options{Workers: workers})
		if !errors.Is(err, context.Canceled) || !finished.Load() || ran.Load() != 0 {
			t.Fatalf("workers=%d, cancelled mid-run: err %v, running body finished %v, %d bodies started after", workers, err, finished.Load(), ran.Load())
		}
	}

	// A context that is never done changes nothing.
	g := NewGraph()
	g.Add("t", func(int) {})
	if _, err := g.Run(context.Background(), Options{Workers: 2}); err != nil {
		t.Fatal(err)
	}
}

// TestWidePanicDrains checks the drain with many independent tasks in
// flight when the failure hits.
func TestWidePanicDrains(t *testing.T) {
	g := NewGraph()
	for i := 0; i < 500; i++ {
		i := i
		g.Add("w", func(int) {
			if i == 137 {
				panic(i)
			}
		})
	}
	if _, err := g.Run(context.Background(), Options{Workers: 8}); err == nil {
		t.Fatal("want error from panicking task")
	}
}

func TestCycleDetected(t *testing.T) {
	g := NewGraph()
	a := g.Add("a", func(int) { t.Error("task in a cyclic graph ran") })
	b := g.Add("b", func(int) { t.Error("task in a cyclic graph ran") })
	g.Dep(a, b)
	g.Dep(b, a)
	if _, err := g.Run(context.Background(), Options{Workers: 2}); err == nil || !strings.Contains(err.Error(), "cycle") {
		t.Fatalf("want cycle error, got %v", err)
	}
}

func TestDiamondOrder(t *testing.T) {
	g := NewGraph()
	var seq []string
	var mu atomic.Int32
	rec := func(s string) func(int) {
		return func(int) {
			for !mu.CompareAndSwap(0, 1) {
			}
			seq = append(seq, s)
			mu.Store(0)
		}
	}
	a := g.Add("a", rec("a"))
	b := g.Add("b", rec("b"))
	c := g.Add("c", rec("c"))
	d := g.Add("d", rec("d"))
	g.Dep(a, b)
	g.Dep(a, c)
	g.Dep(b, d)
	g.Dep(c, d)
	if _, err := g.Run(context.Background(), Options{Workers: 4}); err != nil {
		t.Fatal(err)
	}
	if len(seq) != 4 || seq[0] != "a" || seq[3] != "d" {
		t.Fatalf("diamond order violated: %v", seq)
	}
}

func TestEmptyGraph(t *testing.T) {
	st, err := NewGraph().Run(context.Background(), Options{Workers: 4})
	if err != nil || st.Tasks != 0 {
		t.Fatalf("empty graph: stats=%+v err=%v", st, err)
	}
}

func TestRunTwiceRejected(t *testing.T) {
	g := NewGraph()
	g.Add("t", func(int) {})
	if _, err := g.Run(context.Background(), Options{Workers: 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := g.Run(context.Background(), Options{Workers: 1}); err == nil {
		t.Fatal("second Run must fail")
	}
}

// TestTraceJSON runs a small graph with tracing and validates the emitted
// Chrome trace document.
func TestTraceJSON(t *testing.T) {
	g := NewGraph()
	n := 37
	for i := 0; i < n; i++ {
		g.Add("traced", func(int) { time.Sleep(time.Microsecond) })
	}
	tr := NewTrace()
	if _, err := g.Run(context.Background(), Options{Workers: 4, Trace: tr}); err != nil {
		t.Fatal(err)
	}
	if tr.Events() != n {
		t.Fatalf("trace has %d events, want %d", tr.Events(), n)
	}
	var doc struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Ph   string  `json:"ph"`
			Ts   float64 `json:"ts"`
			Dur  float64 `json:"dur"`
			Tid  int     `json:"tid"`
		} `json:"traceEvents"`
		DisplayTimeUnit string `json:"displayTimeUnit"`
	}
	raw := tr.JSON()
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("trace JSON invalid: %v\n%s", err, raw)
	}
	if len(doc.TraceEvents) != n || doc.DisplayTimeUnit != "ms" {
		t.Fatalf("bad trace document: %d events, unit %q", len(doc.TraceEvents), doc.DisplayTimeUnit)
	}
	for _, ev := range doc.TraceEvents {
		if ev.Ph != "X" || ev.Dur < 0 || ev.Ts < 0 || ev.Tid < 0 || ev.Tid >= 4 {
			t.Fatalf("bad event %+v", ev)
		}
	}
}

// TestStealsHappen drives an imbalanced graph (one long chain seeding wide
// fan-out) and checks the stats plumbing; with multiple workers and enough
// width, at least some work should migrate.
func TestStealsHappen(t *testing.T) {
	if runtime.GOMAXPROCS(0) < 2 {
		t.Skip("needs >1 CPU")
	}
	g := NewGraph()
	root := g.Add("root", func(int) {})
	var cnt atomic.Int64
	for i := 0; i < 2000; i++ {
		id := g.Add("fan", func(int) {
			cnt.Add(1)
			busy := 0
			for k := 0; k < 2000; k++ {
				busy += k
			}
			_ = busy
		})
		g.Dep(root, id)
	}
	st, err := g.Run(context.Background(), Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if cnt.Load() != 2000 {
		t.Fatalf("ran %d fan tasks", cnt.Load())
	}
	if len(st.PerWorker) != 4 {
		t.Fatalf("want 4 worker stat rows, got %d", len(st.PerWorker))
	}
	if st.Steals == 0 {
		t.Log("no steals observed (legal but unusual for this shape)")
	}
}

// TestWorkerIndexExclusive is the scheduler's lock-free scratch contract: a
// task's worker index is in [0, workers) and held by at most one goroutine
// at a time, so per-worker state indexed by it (the engine's evaluation
// scratch, its flop counters) needs no synchronization.
// The bodies increment plain (non-atomic) per-worker counters — under -race
// (make sched-stress runs this package -race -count=5) any violation of the
// exclusivity contract is a reported data race, not a flaky count.
func TestWorkerIndexExclusive(t *testing.T) {
	for _, workers := range []int{1, 2, 3, 8, 32} {
		const n = 20000
		counts := make([]int, workers)
		depth := make([]int, workers)
		g := NewGraph()
		for i := 0; i < n; i++ {
			g.Add("w", func(w int) {
				if w < 0 || w >= workers {
					t.Errorf("workers=%d: worker index %d out of range", workers, w)
					return
				}
				depth[w]++ // plain read-modify-write: racy iff exclusivity is broken
				if depth[w] != 1 {
					t.Errorf("workers=%d: worker %d entered reentrantly (depth %d)", workers, w, depth[w])
				}
				counts[w]++
				depth[w]--
			})
		}
		if _, err := g.Run(context.Background(), Options{Workers: workers}); err != nil {
			t.Fatal(err)
		}
		tot := 0
		for _, c := range counts {
			tot += c
		}
		if tot != n {
			t.Fatalf("workers=%d: per-worker counts total %d, want %d", workers, tot, n)
		}
	}
}
