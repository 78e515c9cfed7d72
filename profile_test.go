package kifmm

import (
	"sync"
	"testing"

	"kifmm/internal/diag"
)

// TestProfiledApplyAllocs pins what an attached profile costs a warm Apply
// in allocations: nothing per task. The engine accounts each task in its
// worker's ledger and merges the ledger into the profile once per Apply, so
// a profiled Apply allocates what an unprofiled one does, give or take two
// (the runtime's own noise). One worker keeps the count schedule-free: at two,
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
	allocs := func() float64 {
		apply := func() {
			if _, err := p.Apply(den); err != nil {
				t.Fatal(err)
			}
		}
		return min(testing.AllocsPerRun(2, apply), testing.AllocsPerRun(2, apply))
	}
	plain := allocs()
	p.SetProfile(diag.NewProfile())
	profiled := allocs()
	t.Logf("warm Apply: %.0f allocations unprofiled, %.0f profiled", plain, profiled)
	if profiled > plain+2 {
		t.Errorf("a profiled Apply makes %.0f allocations, an unprofiled one %.0f: want at most 2 more", profiled, plain)
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

// TestProfileSharedByConcurrentApplies is the fold's concurrency oracle (run
// it under -race): four goroutines Apply one plan at once, all reporting into
// one profile, as fmmserve's requests do. Each phase ends with exactly four
// times one Apply's flops, and the profile counts four graphs.
func TestProfileSharedByConcurrentApplies(t *testing.T) {
	f, err := New(Options{Order: 4, PointsPerBox: 20, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	pts, den := randInput(3000, 1, 6)
	p, err := f.Plan(pts)
	if err != nil {
		t.Fatal(err)
	}
	one := diag.NewProfile()
	p.SetProfile(one)
	if _, err := p.Apply(den); err != nil {
		t.Fatal(err)
	}
	shared := diag.NewProfile()
	p.SetProfile(shared)
	const applies = 4
	var wg sync.WaitGroup
	for range applies {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := p.Apply(den); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	for _, ph := range []string{diag.PhaseUpward, diag.PhaseVList, diag.PhaseXList, diag.PhaseWList, diag.PhaseDownward, diag.PhaseUList} {
		if got, want := shared.Flops(ph), applies*one.Flops(ph); got != want {
			t.Errorf("%s: %d flops after %d concurrent Applies, want %d", ph, got, applies, want)
		}
	}
	for _, ph := range []string{diag.PhaseUpward, diag.PhaseVList, diag.PhaseDownward, diag.PhaseUList} {
		if one.Flops(ph) == 0 {
			t.Errorf("%s: one Apply counts no flops; the oracle checks nothing", ph)
		}
	}
	if n := shared.Counter(diag.CounterSchedGraphs); n != applies {
		t.Errorf("sched_graphs = %d after %d Applies", n, applies)
	}
	if got, want := shared.Counter(diag.CounterSchedTasks), applies*one.Counter(diag.CounterSchedTasks); got != want {
		t.Errorf("sched_tasks = %d after %d Applies, want %d", got, applies, want)
	}
}
