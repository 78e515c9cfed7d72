package kifmm

import (
	"container/list"
	"sync"
)

// tfKey identifies one V-list translation spectrum. Kern is the kernel's
// parameter-inclusive identity (kernel.Kernel.Name, e.g. "yukawa(5)"), so
// the cache can never serve one screening parameter's spectra to another;
// P is the surface order, Level the octant level the spectrum was built for
// (always 0 for homogeneous kernels, which rescale), and Dir the packed
// V-list direction.
type tfKey struct {
	Kern  string
	P     int
	Level int
	Dir   uint32
}

// tfEntry is one cached spectrum. elem is nil while the spectrum is being
// computed; ready is closed when data is valid. Entries evicted from the LRU
// stay valid for goroutines already holding the slice.
type tfEntry struct {
	key   tfKey
	elem  *list.Element
	ready chan struct{}
	data  []float64
}

// TranslationCache is a process-wide, byte-bounded LRU cache of V-list
// translation spectra. Translation spectra depend only on (kernel, surface
// order, level, direction) — not on the tree or the point set — so every
// Operators instance in the process shares one cache: an fmmserve plan-cache
// miss for an already-seen (kernel, p) pays zero spectrum recomputation, and
// concurrent Plans racing to prewarm the same direction perform the build
// exactly once (waiters block on the winner's entry instead of duplicating
// the kernel evaluations and forward FFTs).
//
// Eviction is strict LRU over completed entries, triggered when the summed
// spectrum bytes exceed the byte bound. A single entry larger than the bound
// is kept (the cache never evicts the entry it just admitted), so progress
// is guaranteed under any bound.
type TranslationCache struct {
	mu        sync.Mutex
	maxBytes  int64
	bytes     int64
	ll        *list.List // front = most recently used
	entries   map[tfKey]*tfEntry
	hits      int64
	misses    int64
	evictions int64
}

// NewTranslationCache creates a cache bounded to maxBytes of spectrum data.
func NewTranslationCache(maxBytes int64) *TranslationCache {
	if maxBytes < 1 {
		maxBytes = 1
	}
	return &TranslationCache{
		maxBytes: maxBytes,
		ll:       list.New(),
		entries:  make(map[tfKey]*tfEntry),
	}
}

// sharedTFBytes bounds the process-wide cache: 316 directions cost ~5 MB for
// Laplace p=6 and ~45 MB for Stokes, so the default comfortably holds every
// kernel/order pair a server realistically mixes while still bounding
// pathological many-level Yukawa workloads.
const sharedTFBytes = 512 << 20

// SharedTranslations is the process-wide translation-spectrum cache used by
// every Operators built with NewOperators. Tests that need a private bound
// construct their own TranslationCache.
var SharedTranslations = NewTranslationCache(sharedTFBytes)

// Get returns the spectrum for key, building it with build on a miss.
// Concurrent Gets of one absent key run build once; the losers (and later
// hits on an in-flight entry) count as hits and block until the data is
// ready. The returned slice is shared and must be treated as read-only.
func (c *TranslationCache) Get(key tfKey, build func() []float64) []float64 {
	c.mu.Lock()
	if e, ok := c.entries[key]; ok {
		if e.elem != nil {
			c.ll.MoveToFront(e.elem)
		}
		c.hits++
		c.mu.Unlock()
		<-e.ready
		return e.data
	}
	e := &tfEntry{key: key, ready: make(chan struct{})}
	c.entries[key] = e
	c.misses++
	c.mu.Unlock()

	e.data = build()
	close(e.ready)

	c.mu.Lock()
	e.elem = c.ll.PushFront(e)
	c.bytes += int64(len(e.data)) * 8
	for c.bytes > c.maxBytes {
		back := c.ll.Back()
		be := back.Value.(*tfEntry)
		if be == e {
			break // never evict the entry just admitted
		}
		c.ll.Remove(back)
		delete(c.entries, be.key)
		c.bytes -= int64(len(be.data)) * 8
		c.evictions++
	}
	c.mu.Unlock()
	return e.data
}

// TranslationCacheStats is a point-in-time snapshot of the cache counters.
type TranslationCacheStats struct {
	Hits      int64
	Misses    int64
	Evictions int64
	Entries   int
	Bytes     int64
	MaxBytes  int64
}

// Stats returns the cache counters.
func (c *TranslationCache) Stats() TranslationCacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return TranslationCacheStats{
		Hits:      c.hits,
		Misses:    c.misses,
		Evictions: c.evictions,
		Entries:   c.ll.Len(),
		Bytes:     c.bytes,
		MaxBytes:  c.maxBytes,
	}
}
