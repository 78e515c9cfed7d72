package sched

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"

	"kifmm/internal/goleak"
)

// bodies is a test graph whose tasks run closures: the exec function of its
// runs calls the task's.
type bodies struct {
	*Graph
	fn []func(worker int)
}

func newBodies() *bodies { return &bodies{Graph: NewGraph()} }

// add registers a task running fn; a nil fn adds a synchronization point.
func (b *bodies) add(name string, fn func(worker int)) TaskID {
	b.fn = append(b.fn, fn)
	if fn == nil {
		name = ""
	}
	return b.Add(name)
}

func (b *bodies) run(ctx context.Context, opt Options) (Stats, error) {
	return b.Run(ctx, opt, func(w int, id TaskID) { b.fn[id](w) })
}

// randomDAG builds a random layered DAG of plain tasks and returns it with
// each task's predecessors.
func randomDAG(rng *rand.Rand) (*Graph, [][]TaskID) {
	g := NewGraph()
	var layers [][]TaskID
	var preds [][]TaskID
	nLayers := 2 + rng.Intn(5)
	perLayer := 1 + rng.Intn(40)
	for l := 0; l < nLayers; l++ {
		var layer []TaskID
		for k := 0; k < perLayer; k++ {
			id := g.Add("t")
			preds = append(preds, nil)
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
	return g, preds
}

// checkedRun runs g once with per-run bookkeeping and reports a task that
// ran before one of its predecessors had finished, or other than once.
// stop, when non-nil, is called by the exec of task stopAt (a failure
// injection: it may panic or cancel).
func checkedRun(t *testing.T, label string, g *Graph, preds [][]TaskID, ctx context.Context, workers int, stopAt TaskID, stop func()) error {
	t.Helper()
	runs := make([]atomic.Int32, g.Len())
	done := make([]atomic.Bool, g.Len())
	st, err := g.Run(ctx, Options{Workers: workers}, func(_ int, id TaskID) {
		for _, p := range preds[id] {
			if !done[p].Load() {
				t.Errorf("%s: task %d ran before predecessor %d", label, id, p)
			}
		}
		if id == stopAt && stop != nil {
			stop()
		}
		runs[id].Add(1)
		done[id].Store(true)
	})
	if st.Tasks != int64(g.Len()) {
		t.Errorf("%s: stats report %d tasks, graph has %d", label, st.Tasks, g.Len())
	}
	if err != nil {
		return err
	}
	for id := range runs {
		if k := runs[id].Load(); k != 1 {
			t.Errorf("%s: task %d ran %d times", label, id, k)
		}
	}
	return nil
}

// TestRandomDAGProperty builds random layered DAGs and checks the two
// scheduler invariants — every task runs exactly once, and never before all
// of its predecessors have finished — on every run of one graph: five runs in
// a row, a run after one that panicked and after one that was cancelled, and
// four runs at once from four goroutines.
func TestRandomDAGProperty(t *testing.T) {
	for _, workers := range []int{1, 2, 4, 8} {
		for trial := 0; trial < 6; trial++ {
			rng := rand.New(rand.NewSource(int64(workers*100 + trial)))
			g, preds := randomDAG(rng)
			label := fmt.Sprintf("workers=%d trial=%d", workers, trial)
			bg := context.Background()
			for k := 0; k < 5; k++ {
				if err := checkedRun(t, fmt.Sprintf("%s run %d", label, k), g, preds, bg, workers, NoTask, nil); err != nil {
					t.Fatalf("%s run %d: %v", label, k, err)
				}
			}

			stopAt := TaskID(rng.Intn(g.Len()))
			if err := checkedRun(t, label+" panicking", g, preds, bg, workers, stopAt, func() { panic("stop") }); err == nil {
				t.Fatalf("%s: a panicking run returned no error", label)
			}
			if err := checkedRun(t, label+" after a panic", g, preds, bg, workers, NoTask, nil); err != nil {
				t.Fatalf("%s after a panic: %v", label, err)
			}

			ctx, cancel := context.WithCancel(bg)
			err := checkedRun(t, label+" cancelled", g, preds, ctx, workers, stopAt, func() {
				cancel()
				time.Sleep(time.Millisecond) // let AfterFunc fail the run
			})
			cancel()
			if err != nil && !errors.Is(err, context.Canceled) {
				t.Fatalf("%s: a cancelled run returned %v", label, err)
			}
			if err := checkedRun(t, label+" after a cancel", g, preds, bg, workers, NoTask, nil); err != nil {
				t.Fatalf("%s after a cancel: %v", label, err)
			}

			var wg sync.WaitGroup
			for k := 0; k < 4; k++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					if err := checkedRun(t, fmt.Sprintf("%s concurrent %d", label, k), g, preds, bg, workers, NoTask, nil); err != nil {
						t.Errorf("%s concurrent %d: %v", label, k, err)
					}
				}()
			}
			wg.Wait()
		}
	}
}

// TestPanicFailsGraph checks that a panicking task surfaces as an error,
// that tasks downstream of the panic are skipped, and that no worker
// goroutines are left behind.
func TestPanicFailsGraph(t *testing.T) {
	before := runtime.NumGoroutine()
	g := newBodies()
	var after atomic.Int32
	a := g.add("ok", func(int) {})
	b := g.add("boom", func(int) { panic("kaboom") })
	c := g.add("down", func(int) { after.Add(1) })
	g.Dep(a, b)
	g.Dep(b, c)

	_, err := g.run(context.Background(), Options{Workers: 4})
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
		g := newBodies()
		var ran atomic.Int32
		for i := 0; i < 100; i++ {
			g.add("t", func(int) { ran.Add(1) })
		}
		st, err := g.run(ctx, Options{Workers: workers})
		if !errors.Is(err, context.Canceled) || ran.Load() != 0 || st.Tasks != 100 {
			t.Fatalf("workers=%d, cancelled before Run: err %v, %d bodies ran, %d tasks drained", workers, err, ran.Load(), st.Tasks)
		}

		// The first task cancels and gives AfterFunc's goroutine time to
		// fail the graph; nothing downstream may start after that.
		ctx, cancel = context.WithCancel(context.Background())
		g = newBodies()
		ran.Store(0)
		var finished atomic.Bool
		first := g.add("cancel", func(int) {
			cancel()
			time.Sleep(100 * time.Millisecond)
			finished.Store(true)
		})
		for i := 0; i < 1000; i++ {
			id := g.add("t", func(int) { ran.Add(1) })
			g.Dep(first, id)
		}
		_, err = g.run(ctx, Options{Workers: workers})
		if !errors.Is(err, context.Canceled) || !finished.Load() || ran.Load() != 0 {
			t.Fatalf("workers=%d, cancelled mid-run: err %v, running body finished %v, %d bodies started after", workers, err, finished.Load(), ran.Load())
		}
	}

	// A context that is never done changes nothing.
	g := newBodies()
	g.add("t", func(int) {})
	if _, err := g.run(context.Background(), Options{Workers: 2}); err != nil {
		t.Fatal(err)
	}
}

// TestWidePanicDrains checks the drain with many independent tasks in
// flight when the failure hits.
func TestWidePanicDrains(t *testing.T) {
	g := newBodies()
	for i := 0; i < 500; i++ {
		i := i
		g.add("w", func(int) {
			if i == 137 {
				panic(i)
			}
		})
	}
	if _, err := g.run(context.Background(), Options{Workers: 8}); err == nil {
		t.Fatal("want error from panicking task")
	}
}

// TestDepForwardOnly checks the rule that makes every graph acyclic: a
// backward or self edge panics naming the edge, and a graph built forward
// runs every task once.
func TestDepForwardOnly(t *testing.T) {
	g := newBodies()
	a := g.add("a", nil)
	b := g.add("b", nil)
	for _, e := range [][2]TaskID{{b, a}, {a, a}} {
		func() {
			defer func() {
				msg := fmt.Sprint(recover())
				if want := fmt.Sprintf("sched: Dep(%d, %d) does not point forward", e[0], e[1]); !strings.Contains(msg, want) {
					t.Errorf("Dep(%d, %d): panic %q, want %q", e[0], e[1], msg, want)
				}
			}()
			g.Dep(e[0], e[1])
		}()
	}

	g = newBodies()
	const n = 200
	var runs [n]atomic.Int32
	for i := 0; i < n; i++ {
		id := g.add("t", func(int) { runs[i].Add(1) })
		for _, p := range []int{i - 1, i / 2, i - 7} {
			if p >= 0 && p < i {
				g.Dep(TaskID(p), id)
			}
		}
	}
	if _, err := g.run(context.Background(), Options{Workers: 4}); err != nil {
		t.Fatal(err)
	}
	for i := range runs {
		if k := runs[i].Load(); k != 1 {
			t.Fatalf("task %d ran %d times", i, k)
		}
	}
}

// TestSuccessorsInDeclarationOrder checks the laid-out successor array: a
// task releases its successors in the order their Deps were declared, edges
// of different tasks interleaved, so at one worker they pop newest first;
// the graph holds exactly its tasks and edges; and a Dep once the graph has
// run panics.
func TestSuccessorsInDeclarationOrder(t *testing.T) {
	g := newBodies()
	var seq []TaskID
	rec := func(id *TaskID) func(int) { return func(int) { seq = append(seq, *id) } }
	ids := make([]TaskID, 8)
	for k := range ids {
		ids[k] = g.add("t", rec(&ids[k]))
	}
	// Task 0 releases 5, 2, 7, 3; task 1 (run after them) releases 4 and 6,
	// whose other predecessor is 0.
	for _, e := range [][2]int{{0, 5}, {1, 4}, {0, 2}, {0, 7}, {0, 1}, {1, 6}, {0, 3}, {0, 4}, {0, 6}} {
		g.Dep(ids[e[0]], ids[e[1]])
	}
	if _, err := g.run(context.Background(), Options{Workers: 1}); err != nil {
		t.Fatal(err)
	}
	// 0 pushes 5, 2, 7, 1, 3 (4 and 6 wait on 1): 3 pops first, then 1,
	// which pushes 4, 6.
	want := []TaskID{0, 3, 1, 6, 4, 7, 2, 5}
	if fmt.Sprint(seq) != fmt.Sprint(want) {
		t.Fatalf("run order %v, want %v", seq, want)
	}
	if got, want := g.MemoryBytes(), int64(8*unsafe.Sizeof(task{})+4*(8+1+9)); got != want {
		t.Errorf("MemoryBytes %d, want %d: 8 tasks, 9 successors and 9 offsets", got, want)
	}
	defer func() {
		if msg := fmt.Sprint(recover()); !strings.Contains(msg, "after the graph was laid out") {
			t.Errorf("Dep after a run: panic %q", msg)
		}
	}()
	g.Dep(ids[2], ids[3])
}

func TestDiamondOrder(t *testing.T) {
	g := newBodies()
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
	a := g.add("a", rec("a"))
	b := g.add("b", rec("b"))
	c := g.add("c", rec("c"))
	d := g.add("d", rec("d"))
	g.Dep(a, b)
	g.Dep(a, c)
	g.Dep(b, d)
	g.Dep(c, d)
	if _, err := g.run(context.Background(), Options{Workers: 4}); err != nil {
		t.Fatal(err)
	}
	if len(seq) != 4 || seq[0] != "a" || seq[3] != "d" {
		t.Fatalf("diamond order violated: %v", seq)
	}
}

func TestEmptyGraph(t *testing.T) {
	st, err := NewGraph().Run(context.Background(), Options{Workers: 4}, nil)
	if err != nil || st.Tasks != 0 {
		t.Fatalf("empty graph: stats=%+v err=%v", st, err)
	}
}

// TestRunTwice checks that a graph is not consumed by a run: a second Run
// executes every task again.
func TestRunTwice(t *testing.T) {
	g := NewGraph()
	a := g.Add("a")
	g.Dep(a, g.Add("b"))
	for k := 1; k <= 2; k++ {
		var ran atomic.Int32
		st, err := g.Run(context.Background(), Options{Workers: 1}, func(int, TaskID) { ran.Add(1) })
		if err != nil || ran.Load() != 2 || st.Tasks != 2 {
			t.Fatalf("run %d: err %v, %d tasks executed, %d counted", k, err, ran.Load(), st.Tasks)
		}
	}
}

// TestTraceJSON runs a small graph with tracing and validates the emitted
// Chrome trace document.
func TestTraceJSON(t *testing.T) {
	g := newBodies()
	n := 37
	for i := 0; i < n; i++ {
		g.add("traced", func(int) { time.Sleep(time.Microsecond) })
	}
	tr := NewTrace()
	if _, err := g.run(context.Background(), Options{Workers: 4, Trace: tr}); err != nil {
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

// TestHandoffsCounted drives a wide fan-out (one root releasing 2000
// tasks) and checks the handoff accounting: Steals counts tasks run by a
// worker other than the one that released them, so it equals Stolen and
// cannot exceed the task count; one worker hands off nothing.
func TestHandoffsCounted(t *testing.T) {
	for _, workers := range []int{4, 1} {
		g := newBodies()
		root := g.add("root", func(int) {})
		var cnt atomic.Int64
		for i := 0; i < 2000; i++ {
			id := g.add("fan", func(int) {
				cnt.Add(1)
				busy := 0
				for k := 0; k < 2000; k++ {
					busy += k
				}
				_ = busy
			})
			g.Dep(root, id)
		}
		st, err := g.run(context.Background(), Options{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		if cnt.Load() != 2000 {
			t.Fatalf("workers=%d: ran %d fan tasks", workers, cnt.Load())
		}
		if st.Steals != st.Stolen || st.Steals > st.Tasks {
			t.Fatalf("workers=%d: Steals %d, Stolen %d, Tasks %d", workers, st.Steals, st.Stolen, st.Tasks)
		}
		if workers == 1 && st.Steals != 0 {
			t.Fatalf("one worker handed off %d tasks", st.Steals)
		}
		t.Logf("workers=%d: %d handoffs of %d tasks", workers, st.Steals, st.Tasks)
	}
}

// TestWorkerIndexExclusive is the scheduler's lock-free scratch contract: a
// task's worker index is in [0, workers) and held by at most one goroutine
// at a time, so per-worker state indexed by it (the engine's evaluation
// scratch, its phase ledger) needs no synchronization.
// The bodies increment plain (non-atomic) per-worker counters — under -race
// (make sched-stress runs this package -race -count=5) any violation of the
// exclusivity contract is a reported data race, not a flaky count.
func TestWorkerIndexExclusive(t *testing.T) {
	for _, workers := range []int{1, 2, 3, 8, 32} {
		const n = 20000
		counts := make([]int, workers)
		depth := make([]int, workers)
		g := newBodies()
		for i := 0; i < n; i++ {
			g.add("w", func(w int) {
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
		if _, err := g.run(context.Background(), Options{Workers: workers}); err != nil {
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

// TestSyncPointNotExecuted checks that a synchronization point orders its
// successors but is neither executed nor traced.
func TestSyncPointNotExecuted(t *testing.T) {
	g := NewGraph()
	a := g.Add("a")
	j := g.Add("")
	b := g.Add("b")
	g.Dep(a, j)
	g.Dep(j, b)
	var seq []TaskID
	tr := NewTrace()
	st, err := g.Run(context.Background(), Options{Workers: 2, Trace: tr}, func(_ int, id TaskID) { seq = append(seq, id) })
	if err != nil || st.Tasks != 3 || tr.Events() != 2 || len(seq) != 2 || seq[0] != a || seq[1] != b {
		t.Fatalf("err %v, %d tasks, %d events, executed %v", err, st.Tasks, tr.Events(), seq)
	}
}

func TestForCoversAllIndices(t *testing.T) {
	for _, workers := range []int{0, 1, 2, 4, 16} {
		for _, n := range []int{0, 1, 7, 100, 1000} {
			hits := make([]int32, n)
			For(workers, n, func(i int) { atomic.AddInt32(&hits[i], 1) })
			for i, h := range hits {
				if h != 1 {
					t.Fatalf("workers=%d n=%d: index %d hit %d times", workers, n, i, h)
				}
			}
		}
	}
}

func TestForSequentialOrderWhenSingleWorker(t *testing.T) {
	var order []int
	For(1, 5, func(i int) { order = append(order, i) })
	for i, v := range order {
		if v != i {
			t.Fatalf("single worker should run in order, got %v", order)
		}
	}
}

// TestForPanicPropagates checks that a panicking iteration reaches For's
// caller once the other chunks have drained.
func TestForPanicPropagates(t *testing.T) {
	defer func() {
		if p := fmt.Sprint(recover()); !strings.Contains(p, "sched.For") || !strings.Contains(p, "boom") {
			t.Fatalf("recovered %q, want sched.For's panic naming the cause", p)
		}
	}()
	For(4, 100, func(i int) {
		if i == 37 {
			panic("boom")
		}
	})
}

func TestDefaultWorkersPositive(t *testing.T) {
	if DefaultWorkers() < 1 {
		t.Fatalf("DefaultWorkers = %d", DefaultWorkers())
	}
}
