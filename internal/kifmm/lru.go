package kifmm

import (
	"container/list"
	"sync"
)

// lru is the shape both process-wide caches share (translation spectra,
// operator sets): a strict LRU over completed entries under a size bound,
// where cost gives each entry's size, and singleflight builds — concurrent
// gets of one absent key run the build once, the others wait for it.
// Eviction never drops the entry it just admitted, so one entry larger than
// the bound is kept and progress is guaranteed under any bound. Values
// evicted stay valid for whoever already holds them.
type lru[K comparable, V any] struct {
	mu        sync.Mutex
	max, size int64
	cost      func(V) int64
	ll        *list.List // front = most recently used
	entries   map[K]*lruEntry[K, V]
	hits      int64
	misses    int64
	evictions int64
}

// lruEntry is one cached value. elem is nil while the value is being built;
// ready is closed when val is valid.
type lruEntry[K comparable, V any] struct {
	key   K
	elem  *list.Element
	ready chan struct{}
	val   V
}

// newLRU returns an empty cache bounded to bound summed cost (at least 1).
func newLRU[K comparable, V any](bound int64, cost func(V) int64) *lru[K, V] {
	return &lru[K, V]{
		max:     max(1, bound),
		cost:    cost,
		ll:      list.New(),
		entries: make(map[K]*lruEntry[K, V]),
	}
}

// get returns the value for key, building it with build on a miss. A get
// that finds the key in flight counts as a hit and blocks until the value
// is ready.
func (c *lru[K, V]) get(key K, build func() V) V {
	c.mu.Lock()
	if e, ok := c.entries[key]; ok {
		if e.elem != nil {
			c.ll.MoveToFront(e.elem)
		}
		c.hits++
		c.mu.Unlock()
		<-e.ready
		return e.val
	}
	e := &lruEntry[K, V]{key: key, ready: make(chan struct{})}
	c.entries[key] = e
	c.misses++
	c.mu.Unlock()

	e.val = build()
	close(e.ready)

	c.mu.Lock()
	e.elem = c.ll.PushFront(e)
	c.size += c.cost(e.val)
	for c.size > c.max {
		back := c.ll.Back()
		be := back.Value.(*lruEntry[K, V])
		if be == e {
			break // never evict the entry just admitted
		}
		c.ll.Remove(back)
		delete(c.entries, be.key)
		c.size -= c.cost(be.val)
		c.evictions++
	}
	c.mu.Unlock()
	return e.val
}

// CacheStats is a point-in-time snapshot of a process-wide cache's counters
// (OperatorCache, TranslationCache). Size and Max are in the cache's own
// cost unit: operator sets for the one, spectrum bytes for the other.
type CacheStats struct {
	Hits, Misses, Evictions int64
	Entries                 int
	Size, Max               int64
}

// Stats returns the cache counters.
func (c *lru[K, V]) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{
		Hits:      c.hits,
		Misses:    c.misses,
		Evictions: c.evictions,
		Entries:   c.ll.Len(),
		Size:      c.size,
		Max:       c.max,
	}
}
