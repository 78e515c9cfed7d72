package kifmm

import (
	"math"
	"sync"
	"testing"
)

// unseen returns a number that makes an operator key this process has
// never built: the cache's miss count only grows, and every New of a key
// built from it adds one, so consecutive calls never repeat (under -count
// too).
func unseen() float64 { return float64(OperatorCache().Misses) }

// TestOperatorCacheBoundedUnderManyLambdas: solvers for 100 distinct Yukawa
// screening parameters — 100 distinct operator keys, as a hostile client of
// the service could send — leave the process-wide cache at its bound,
// evicting the rest.
func TestOperatorCacheBoundedUnderManyLambdas(t *testing.T) {
	before := OperatorCache()
	for i := 0; i < 100; i++ {
		if _, err := New(Options{Kernel: Yukawa, YukawaLambda: 1000 + unseen(), Order: 4}); err != nil {
			t.Fatal(err)
		}
		if st := OperatorCache(); st.Entries > int(st.Max) {
			t.Fatalf("after %d solvers: %d cached operator sets, bound %d", i+1, st.Entries, st.Max)
		}
	}
	after := OperatorCache()
	if got := after.Misses - before.Misses; got != 100 {
		t.Fatalf("100 new keys made %d misses, want 100", got)
	}
	if after.Entries != int(after.Max) {
		t.Fatalf("%d entries after 100 keys, want the bound %d", after.Entries, after.Max)
	}
	if got, want := after.Evictions-before.Evictions, 100-after.Max; got < want {
		t.Fatalf("%d evictions, want at least %d", got, want)
	}
}

// TestEvictedOperatorsKeepEvaluating: a plan whose operators have been
// evicted from the process-wide cache still holds them and keeps evaluating
// bit-identically, and a solver built after the eviction (on a rebuilt set)
// gives the same bits too.
func TestEvictedOperatorsKeepEvaluating(t *testing.T) {
	opt := Options{Order: 4, Tolerance: 1e-9 * (1 + unseen()/1024), Workers: 2}
	pts, den := randInput(2000, 1, 28)
	solver, err := New(opt)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := solver.Plan(pts)
	if err != nil {
		t.Fatal(err)
	}
	want, err := plan.Apply(den)
	if err != nil {
		t.Fatal(err)
	}
	// Fill the cache with new keys until the plan's set is evicted.
	for i := 0; i < int(OperatorCache().Max); i++ {
		if _, err := New(Options{Kernel: Yukawa, YukawaLambda: 1000 + unseen(), Order: 4}); err != nil {
			t.Fatal(err)
		}
	}
	misses := OperatorCache().Misses
	rebuilt, err := New(opt)
	if err != nil {
		t.Fatal(err)
	}
	if OperatorCache().Misses != misses+1 {
		t.Fatal("the plan's operator set was not evicted; the test proves nothing")
	}
	got, err := plan.Apply(den)
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := rebuilt.Evaluate(pts, den)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("potential %d after eviction: %v, want %v", i, got[i], want[i])
		}
		if math.Float64bits(fresh[i]) != math.Float64bits(want[i]) {
			t.Fatalf("potential %d from the rebuilt operators: %v, want %v", i, fresh[i], want[i])
		}
	}
}

// TestConcurrentNewBuildsOnce: solvers of one new (kernel, order,
// tolerance) created concurrently build its operators once and share them.
func TestConcurrentNewBuildsOnce(t *testing.T) {
	opt := Options{Kernel: Stokes, Order: 3, Tolerance: 1e-9 * (1 + unseen()/1024), Workers: 2}
	before := OperatorCache()
	const n = 6
	solvers := make([]*FMM, n)
	var wg sync.WaitGroup
	for g := 0; g < n; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			f, err := New(opt)
			if err != nil {
				t.Error(err)
				return
			}
			solvers[g] = f
		}()
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	after := OperatorCache()
	if misses, hits := after.Misses-before.Misses, after.Hits-before.Hits; misses != 1 || hits != n-1 {
		t.Fatalf("%d concurrent News of one key: %d misses and %d hits, want 1 and %d", n, misses, hits, n-1)
	}
	for g := 1; g < n; g++ {
		if solvers[g].spec.Ops != solvers[0].spec.Ops {
			t.Fatalf("solver %d holds a different operator set than solver 0", g)
		}
	}
}
