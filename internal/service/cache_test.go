package service

import (
	"fmt"
	"testing"
)

func entry(id string, bytes int64) *CachedPlan {
	return &CachedPlan{ID: id, Bytes: bytes}
}

func TestPlanKeyStableAndSensitive(t *testing.T) {
	pts := [][3]float64{{0.1, 0.2, 0.3}, {0.4, 0.5, 0.6}}
	o := SolverOptions{Kernel: "laplace", Order: 6}
	k1 := PlanKey(pts, o)
	if k2 := PlanKey(pts, o); k2 != k1 {
		t.Fatalf("key not stable: %s vs %s", k1, k2)
	}
	if k := PlanKey(pts, SolverOptions{Kernel: "laplace", Order: 4}); k == k1 {
		t.Fatalf("options change did not change key")
	}
	moved := [][3]float64{{0.1, 0.2, 0.3}, {0.4, 0.5, 0.60001}}
	if k := PlanKey(moved, o); k == k1 {
		t.Fatalf("point change did not change key")
	}
	if k := PlanKey(pts[:1], o); k == k1 {
		t.Fatalf("point count change did not change key")
	}
}

func TestCacheLRUEvictionByCount(t *testing.T) {
	c := NewPlanCache(2, 0)
	c.Put(entry("a", 1))
	c.Put(entry("b", 1))
	if _, ok := c.Get("a"); !ok { // refresh a → b is now coldest
		t.Fatal("a missing")
	}
	c.Put(entry("c", 1))
	if _, ok := c.Get("b"); ok {
		t.Fatal("b should have been evicted")
	}
	if _, ok := c.Get("a"); !ok {
		t.Fatal("a should have survived")
	}
	if _, ok := c.Get("c"); !ok {
		t.Fatal("c should be resident")
	}
	st := c.Stats()
	if st.Plans != 2 || st.Evictions != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestCacheSecondChance: a plan read by id since eviction last passed it
// survives a run of one-shot inserts that a plain LRU would evict it under
// (two clients: one reads its plan once a round, the other's misses — as
// many a round as the cache holds — churn), and the entry just admitted is
// never the one evicted.
func TestCacheSecondChance(t *testing.T) {
	c := NewPlanCache(3, 0)
	c.Put(entry("kept", 1))
	c.Put(entry("b", 1))
	for round := 0; round < 4; round++ {
		if _, ok := c.Get("kept"); !ok {
			t.Fatalf("round %d: the plan read by id was evicted", round)
		}
		for m := 0; m < 3; m++ {
			id := fmt.Sprintf("miss%d.%d", round, m)
			c.Put(entry(id, 1))
			if _, ok := c.byID[id]; !ok {
				t.Fatalf("the entry just admitted (%s) was evicted", id)
			}
		}
	}
	if st := c.Stats(); st.Plans != 3 || st.Evictions != 11 {
		t.Fatalf("stats = %+v, want 3 plans and 11 evictions", st)
	}
}

func TestCacheEvictionByBytes(t *testing.T) {
	c := NewPlanCache(0, 100)
	c.Put(entry("a", 60))
	c.Put(entry("b", 60)) // 120 > 100 → evict a
	if _, ok := c.Get("a"); ok {
		t.Fatal("a should have been evicted by byte bound")
	}
	if st := c.Stats(); st.Bytes != 60 {
		t.Fatalf("bytes = %d", st.Bytes)
	}
	// An oversize single entry is still admitted alone.
	c.Put(entry("huge", 500))
	if _, ok := c.Get("huge"); !ok {
		t.Fatal("oversize entry should be admitted alone")
	}
	if st := c.Stats(); st.Plans != 1 {
		t.Fatalf("plans = %d", st.Plans)
	}
}

func TestCacheRefreshSameID(t *testing.T) {
	c := NewPlanCache(4, 0)
	c.Put(entry("a", 10))
	c.Put(entry("a", 30))
	st := c.Stats()
	if st.Plans != 1 || st.Bytes != 30 {
		t.Fatalf("stats after refresh = %+v", st)
	}
}

func TestCacheHitMissAccounting(t *testing.T) {
	c := NewPlanCache(4, 0)
	c.Get("nope")
	c.Put(entry("a", 1))
	c.Get("a")
	c.Get("a")
	st := c.Stats()
	if st.Hits != 2 || st.Misses != 1 {
		t.Fatalf("hits/misses = %d/%d", st.Hits, st.Misses)
	}
}

func TestCacheConcurrent(t *testing.T) {
	c := NewPlanCache(8, 0)
	done := make(chan struct{})
	for g := 0; g < 8; g++ {
		go func(g int) {
			defer func() { done <- struct{}{} }()
			for i := 0; i < 200; i++ {
				id := fmt.Sprintf("p%d", (g+i)%16)
				if _, ok := c.Get(id); !ok {
					c.Put(entry(id, 1))
				}
			}
		}(g)
	}
	for g := 0; g < 8; g++ {
		<-done
	}
	if st := c.Stats(); st.Plans > 8 {
		t.Fatalf("bound violated: %+v", st)
	}
}
