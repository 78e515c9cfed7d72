package kifmm

import (
	"context"
	"sync"
	"testing"

	"kifmm/internal/diag"
)

// TestProfiledApplyAllocs pins what the Apply's record costs a warm Apply in
// allocations: nothing per task. The engine accounts each task in its
// worker's row table and folds the tables into the record once per graph, so
// ApplyWithStats allocates what a plain Apply does, give or take two (the
// runtime's own noise). One worker keeps the count schedule-free: at two,
// the V row's spectrum buffers vary by dozens from one Apply to the next.
func TestProfiledApplyAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation inflates AllocsPerRun")
	}
	f, err := New(Options{Order: 4, PointsPerBox: 8, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	pts, den := randInput(20000, 1, 5) // ≈ 2.5k leaves
	p, err := f.Plan(pts)
	if err != nil {
		t.Fatal(err)
	}
	// allocs is the fewer of two warm measurements.
	allocs := func(apply func() error) float64 {
		run := func() {
			if err := apply(); err != nil {
				t.Fatal(err)
			}
		}
		return min(testing.AllocsPerRun(2, run), testing.AllocsPerRun(2, run))
	}
	plain := allocs(func() error {
		_, err := p.Apply(den)
		return err
	})
	profiled := allocs(func() error {
		_, _, err := p.ApplyWithStats(context.Background(), den)
		return err
	})
	t.Logf("warm Apply: %.0f allocations plain, %.0f with its record", plain, profiled)
	if profiled > plain+2 {
		t.Errorf("ApplyWithStats makes %.0f allocations, a plain Apply %.0f: want at most 2 more", profiled, plain)
	}
}

// TestWarmApplyAllocs pins a warm Plan.Apply at O(workers) allocations, at 1
// and 2 workers, on TestProfiledApplyAllocs' tree of ≈ 2.5k leaves: the plan
// compiled its task graph once, so an Apply allocates what a run of it needs —
// its dependency counters, ready stack and workers — and the potentials it
// returns, nothing per task. Rebuilding the graph on every Apply made ≈ 35k.
func TestWarmApplyAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation inflates AllocsPerRun")
	}
	pts, den := randInput(20000, 1, 5)
	for _, workers := range []int{1, 2} {
		f, err := New(Options{Order: 4, PointsPerBox: 8, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		p, err := f.Plan(pts)
		if err != nil {
			t.Fatal(err)
		}
		apply := func() {
			if _, err := p.Apply(den); err != nil {
				t.Fatal(err)
			}
		}
		// Warm means the engine's buffers have grown to what a run holds at
		// once. At one worker that is the first Apply's; at two it moves with
		// the schedule, and a run that holds more spectra or partials than
		// any before allocates the difference, more often on a loaded box.
		// So: twenty warm-up Applies, then the fewest of three measurements.
		for range 20 {
			apply()
		}
		allocs := min(testing.AllocsPerRun(2, apply), testing.AllocsPerRun(2, apply), testing.AllocsPerRun(2, apply))
		budget := 64 + 16*workers
		t.Logf("workers %d: warm Apply %.0f allocations, budget %d", workers, allocs, budget)
		if allocs > float64(budget) {
			t.Errorf("workers %d: a warm Apply makes %.0f allocations, budget %d", workers, allocs, budget)
		}
	}
}

// TestConcurrentApplyStats is the record's concurrency oracle (run it under
// -race): four goroutines ApplyWithStats one plan at once, as fmmserve's
// requests do. Each gets a record of its own Apply alone: every phase's
// flops and the task count of one serial Apply, and one graph.
func TestConcurrentApplyStats(t *testing.T) {
	f, err := New(Options{Order: 4, PointsPerBox: 20, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	pts, den := randInput(3000, 1, 6)
	p, err := f.Plan(pts)
	if err != nil {
		t.Fatal(err)
	}
	_, one, err := p.ApplyWithStats(context.Background(), den)
	if err != nil {
		t.Fatal(err)
	}
	const applies = 4
	recs := make([]ApplyStats, applies)
	var wg sync.WaitGroup
	for k := range applies {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var err error
			if _, recs[k], err = p.ApplyWithStats(context.Background(), den); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	phases := []string{diag.PhaseUpward, diag.PhaseVList, diag.PhaseXList, diag.PhaseWList, diag.PhaseDownward, diag.PhaseUList}
	for k, rec := range recs {
		for _, ph := range phases {
			_, got := rec.Phase(ph)
			if _, want := one.Phase(ph); got != want {
				t.Errorf("Apply %d: %s: %d flops, one serial Apply %d", k, ph, got, want)
			}
		}
		if rec.Graphs != 1 {
			t.Errorf("Apply %d: %d graphs, want 1", k, rec.Graphs)
		}
		if rec.Tasks != one.Tasks {
			t.Errorf("Apply %d: %d tasks, one serial Apply %d", k, rec.Tasks, one.Tasks)
		}
	}
	for _, ph := range []string{diag.PhaseUpward, diag.PhaseVList, diag.PhaseDownward, diag.PhaseUList} {
		if _, flops := one.Phase(ph); flops == 0 {
			t.Errorf("%s: one Apply counts no flops; the oracle checks nothing", ph)
		}
	}
}
