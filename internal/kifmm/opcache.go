package kifmm

import (
	"math"

	"kifmm/internal/kernel"
)

// opKey identifies one Operators: the kernel's parameter-inclusive identity
// (kernel.Kernel.Name, so each Yukawa screening parameter is its own key),
// the surface order, and the exact bits of the regularization tolerance.
// kifmm.New refuses a NaN tolerance, so only a caller of Get inside the
// module can pass one; bits keep even that a key the cache can find and
// evict.
type opKey struct {
	Kern string
	P    int
	Tol  uint64
}

// OperatorCache is a process-wide, count-bounded LRU cache of translation
// operator sets. Operators depend only on (kernel, order, tolerance) and
// never change what they have published — a non-homogeneous kernel's
// per-level tables, the dense M2L matrices and each table's V-list spectra
// are added on first use — so one set serves every solver with that key: an
// fmmserve plan-cache miss for a seen (kernel, order) and every Yukawa
// session step after the first build nothing, and concurrent solvers of one
// new key build it once. A set evicted here stays valid for the solvers and
// plans that hold it.
type OperatorCache struct {
	*lru[opKey, *Operators]
}

// NewOperatorCache creates a cache holding at most maxEntries operator sets.
func NewOperatorCache(maxEntries int) *OperatorCache {
	return &OperatorCache{newLRU[opKey](int64(maxEntries), func(*Operators) int64 { return 1 })}
}

// sharedOperatorEntries bounds the process-wide cache. A set costs from
// ~1.6 MB (Laplace, order 6) to ~12 MB (Stokes, order 5), plus the V-list
// spectra its tables hold (5.1 and 27.3 MB; a Yukawa set holds 5.1 MB for
// each level it translates at), and a server mixes a handful of (kernel,
// order) pairs.
const sharedOperatorEntries = 8

// SharedOperators is the process-wide operator cache every solver takes its
// Operators from. Tests that need a private bound construct their own.
var SharedOperators = NewOperatorCache(sharedOperatorEntries)

// Get returns the operators for (kern, p, tol), building them on a miss on
// up to workers goroutines. Concurrent Gets of one absent key build once;
// the others count as hits and wait for the build.
func (c *OperatorCache) Get(kern kernel.Kernel, p int, tol float64, workers int) *Operators {
	key := opKey{Kern: kern.Name(), P: p, Tol: math.Float64bits(tol)}
	return c.get(key, func() *Operators { return newOperators(kern, p, tol, workers) })
}
