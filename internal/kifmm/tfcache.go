package kifmm

// tfKey identifies one V-list translation spectrum. Kern is the kernel's
// parameter-inclusive identity (kernel.Kernel.Name, e.g. "yukawa(5)"), so
// the cache can never serve one screening parameter's spectra to another;
// P is the surface order, Level the octant level the spectrum was built for
// (always 0 for homogeneous kernels, which rescale), and Dir the V-list
// direction's dirSlot.
type tfKey struct {
	Kern  string
	P     int
	Level int
	Dir   int
}

// TranslationCache is a process-wide, byte-bounded LRU cache of V-list
// translation spectra. Translation spectra depend only on (kernel, surface
// order, level, direction) — not on the tree or the point set — so every
// Operators instance in the process shares one cache: operator sets of one
// kernel and order at different tolerances share their spectra, a rebuilt
// set pays zero spectrum recomputation, and concurrent resolutions of the
// same direction perform the build exactly once (waiters block on the
// winner's entry instead of duplicating the kernel evaluations and forward
// FFTs). Each level table of an Operators looks its spectra up here once and
// holds them (Operators.vTable), so plans never look them up. Eviction is
// lru's (lru.go) under a bound on the summed spectrum bytes.
type TranslationCache struct {
	*lru[tfKey, []float64]
}

// NewTranslationCache creates a cache bounded to maxBytes of spectrum data.
func NewTranslationCache(maxBytes int64) *TranslationCache {
	return &TranslationCache{newLRU[tfKey](maxBytes, func(data []float64) int64 { return int64(len(data)) * 8 })}
}

// sharedTFBytes bounds the process-wide cache: 316 directions cost ~5 MB for
// Laplace p=6 and ~27 MB for Stokes p=5, so the default comfortably holds every
// kernel/order pair a server realistically mixes while still bounding
// pathological many-level Yukawa workloads.
const sharedTFBytes = 512 << 20

// SharedTranslations is the process-wide translation-spectrum cache used by
// every Operators. Tests that need a private bound
// construct their own TranslationCache.
var SharedTranslations = NewTranslationCache(sharedTFBytes)

// Get returns the spectrum for key, building it with build on a miss.
// Concurrent Gets of one absent key run build once; the losers (and later
// hits on an in-flight entry) count as hits and block until the data is
// ready. The returned slice is shared and must be treated as read-only.
func (c *TranslationCache) Get(key tfKey, build func() []float64) []float64 {
	return c.get(key, build)
}
