package kifmm

import (
	"sync"
	"sync/atomic"
)

// cowCache is a read-mostly concurrent cache: lookups load an immutable
// typed map through an atomic pointer, so the hot hit path performs no
// interface boxing and no allocation (sync.Map boxes every key into any —
// a heap allocation per lookup for uint64 keys, which fmmvet's hotalloc
// analyzer flagged on the M2L and per-level operator caches). Inserts copy
// the map under a mutex; with a handful of levels and at most 316 V-list
// directions the copy cost is irrelevant next to building the operator.
type cowCache[K comparable, V any] struct {
	mu sync.Mutex
	p  atomic.Pointer[map[K]V]
}

// get returns the cached value for k, if present. It never allocates.
func (c *cowCache[K, V]) get(k K) (V, bool) {
	m := c.p.Load()
	if m == nil {
		var zero V
		return zero, false
	}
	v, ok := (*m)[k]
	return v, ok
}

// insert publishes v under k unless a concurrent insert won the race, and
// returns the winning value. Callers build v first and must tolerate the
// duplicate build being discarded (same contract as sync.Map.LoadOrStore).
func (c *cowCache[K, V]) insert(k K, v V) V {
	c.mu.Lock()
	defer c.mu.Unlock()
	old := c.p.Load()
	if old != nil {
		if w, ok := (*old)[k]; ok {
			return w
		}
	}
	next := make(map[K]V, 1)
	if old != nil {
		next = make(map[K]V, len(*old)+1)
		for kk, vv := range *old {
			next[kk] = vv
		}
	}
	next[k] = v
	c.p.Store(&next)
	return v
}
