package kifmm

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"kifmm/internal/kernel"
)

// TestTranslationCacheSingleflight: concurrent Gets of one absent key must
// run the builder exactly once; the racers wait for the winner's result.
func TestTranslationCacheSingleflight(t *testing.T) {
	c := NewTranslationCache(1 << 20)
	key := tfKey{Kern: "laplace", P: 6, Dir: dirSlot(2, 0, 0)}
	var builds atomic.Int32
	const racers = 16
	results := make([][]float64, racers)
	var wg sync.WaitGroup
	for g := 0; g < racers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			results[g] = c.Get(key, func() []float64 {
				builds.Add(1)
				time.Sleep(5 * time.Millisecond) // widen the race window
				return make([]float64, 64)
			})
		}(g)
	}
	wg.Wait()
	if n := builds.Load(); n != 1 {
		t.Fatalf("builder ran %d times, want 1", n)
	}
	for g := 1; g < racers; g++ {
		if &results[g][0] != &results[0][0] {
			t.Fatalf("racer %d got a different spectrum slice", g)
		}
	}
	st := c.Stats()
	if st.Misses != 1 || st.Hits != racers-1 {
		t.Fatalf("stats hits=%d misses=%d, want %d/1", st.Hits, st.Misses, racers-1)
	}
}

// TestTranslationCacheEviction: under a tiny byte bound the cache must stay
// within budget by evicting least-recently-used entries, and an evicted key
// must rebuild on the next Get.
func TestTranslationCacheEviction(t *testing.T) {
	const entryFloats = 32 // 256 bytes per entry
	c := NewTranslationCache(3 * entryFloats * 8)
	build := func() []float64 { return make([]float64, entryFloats) }
	for d := 0; d < 10; d++ {
		c.Get(tfKey{Kern: "laplace", P: 6, Dir: d}, build)
	}
	st := c.Stats()
	if st.Size > st.Max {
		t.Fatalf("cache over budget: %d > %d", st.Size, st.Max)
	}
	if st.Entries > 3 {
		t.Fatalf("cache holds %d entries, want <= 3", st.Entries)
	}
	if st.Evictions < 7 {
		t.Fatalf("expected >= 7 evictions, got %d", st.Evictions)
	}
	// Key 0 was evicted long ago: the next Get must rebuild it.
	misses := st.Misses
	c.Get(tfKey{Kern: "laplace", P: 6, Dir: 0}, build)
	if got := c.Stats().Misses; got != misses+1 {
		t.Fatalf("evicted key did not rebuild: misses %d, want %d", got, misses+1)
	}
}

// TestTranslationCacheOversizedEntry: one entry larger than the whole bound
// is admitted (and everything else evicted) rather than thrashing forever.
func TestTranslationCacheOversizedEntry(t *testing.T) {
	c := NewTranslationCache(100)
	got := c.Get(tfKey{Kern: "stokes", P: 8, Dir: 1}, func() []float64 { return make([]float64, 1000) })
	if len(got) != 1000 {
		t.Fatalf("oversized entry not returned")
	}
	st := c.Stats()
	if st.Entries != 1 {
		t.Fatalf("want the oversized entry resident, got %d entries", st.Entries)
	}
}

// TestTranslationSharedAcrossOperators: two Operators for the same kernel
// and order must share spectra through the process-wide cache — the second
// TranslationAt for a direction is a hit that returns the same slice.
func TestTranslationSharedAcrossOperators(t *testing.T) {
	cache := NewTranslationCache(1 << 30)
	a := newFFTM2LCache(NewOperators(kernel.Laplace{}, 4, 1e-9), cache)
	b := newFFTM2LCache(NewOperators(kernel.Laplace{}, 4, 1e-9), cache)
	sa := a.TranslationAt(0, 2, 0, 0)
	misses := cache.Stats().Misses
	sb := b.TranslationAt(0, 2, 0, 0)
	if &sa[0] != &sb[0] {
		t.Fatalf("operators did not share the cached spectrum")
	}
	if got := cache.Stats().Misses; got != misses {
		t.Fatalf("second operator recomputed the spectrum (misses %d -> %d)", misses, got)
	}
	// A different order must not collide.
	c := newFFTM2LCache(NewOperators(kernel.Laplace{}, 6, 1e-9), cache)
	sc := c.TranslationAt(0, 2, 0, 0)
	if len(sc) == len(sa) {
		t.Fatalf("p=4 and p=6 spectra have the same length; key collision suspected")
	}
}
