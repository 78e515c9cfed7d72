package service

import (
	"container/list"
	"sync"

	"kifmm"
)

// CachedPlan is one resident plan: the solver (owning the precomputed
// translation operators) plus the built Plan (tree, interaction lists,
// engine state). Both halves are what a cold request pays to construct and
// what a warm request reuses.
type CachedPlan struct {
	ID        string
	Solver    *kifmm.FMM
	Plan      *kifmm.Plan
	NumPoints int
	Bytes     int64
}

// CacheStats is a point-in-time view of the cache counters for /metrics.
type CacheStats struct {
	Plans     int
	Bytes     int64
	MaxPlans  int
	MaxBytes  int64
	Hits      int64
	Misses    int64
	Evictions int64
}

// PlanCache is a bounded LRU of built plans keyed by content hash. Both the
// entry count and the estimated resident bytes are capped; inserting over
// either bound evicts from the cold end. All methods are safe for
// concurrent use.
type PlanCache struct {
	mu       sync.Mutex
	maxPlans int
	maxBytes int64
	bytes    int64
	lru      *list.List // front = most recently used; values are *CachedPlan
	byID     map[string]*list.Element
	// referenced marks the plans read (Get) since eviction last passed them:
	// the second chance that keeps plans clients address by id resident
	// while one-shot plans churn.
	referenced map[string]bool

	hits, misses, evictions int64
}

// NewPlanCache creates a cache bounded to maxPlans entries and maxBytes
// estimated resident bytes (either ≤ 0 means unbounded on that axis).
func NewPlanCache(maxPlans int, maxBytes int64) *PlanCache {
	return &PlanCache{
		maxPlans: maxPlans,
		maxBytes: maxBytes,
		lru:      list.New(),
		byID:     make(map[string]*list.Element),

		referenced: make(map[string]bool),
	}
}

// Get returns the plan by ID, marking it most recently used.
func (c *PlanCache) Get(id string) (*CachedPlan, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, found := c.byID[id]
	if !found {
		c.misses++
		return nil, false
	}
	c.hits++
	c.lru.MoveToFront(el)
	c.referenced[id] = true
	return el.Value.(*CachedPlan), true
}

// Put inserts (or refreshes) a plan and evicts cold entries until the cache
// is back within both bounds. A single plan larger than maxBytes is still
// admitted alone — the bound is a steady-state target, not an admission
// filter.
//
// Eviction is LRU with a second chance: walking from the cold end, an entry
// read since the walk last passed it loses that mark and moves to the warm
// end instead of going. A plan clients keep addressing by id — one that
// another client's run of misses would push out of a plain LRU between two
// of its requests — outlives the one-shot plans of those misses.
func (c *PlanCache) Put(p *CachedPlan) {
	c.mu.Lock()
	defer c.mu.Unlock()
	admitted, ok := c.byID[p.ID]
	if ok {
		old := admitted.Value.(*CachedPlan)
		c.bytes += p.Bytes - old.Bytes
		admitted.Value = p
		c.lru.MoveToFront(admitted)
	} else {
		admitted = c.lru.PushFront(p)
		c.byID[p.ID] = admitted
		c.bytes += p.Bytes
	}
	// The walk never evicts the one just admitted, and visits each entry at
	// most twice (once more after a second chance), so it terminates.
	el := c.lru.Back()
	for el != nil &&
		((c.maxPlans > 0 && c.lru.Len() > c.maxPlans) ||
			(c.maxBytes > 0 && c.bytes > c.maxBytes)) {
		prev := el.Prev()
		old := el.Value.(*CachedPlan)
		switch {
		case el == admitted:
		case c.referenced[old.ID]:
			delete(c.referenced, old.ID)
			c.lru.MoveToFront(el)
		default:
			c.lru.Remove(el)
			delete(c.byID, old.ID)
			delete(c.referenced, old.ID)
			c.bytes -= old.Bytes
			c.evictions++
		}
		el = prev
	}
}

// Stats returns the current counters.
func (c *PlanCache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{
		Plans:     c.lru.Len(),
		Bytes:     c.bytes,
		MaxPlans:  c.maxPlans,
		MaxBytes:  c.maxBytes,
		Hits:      c.hits,
		Misses:    c.misses,
		Evictions: c.evictions,
	}
}
