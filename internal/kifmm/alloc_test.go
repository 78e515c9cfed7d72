package kifmm

import (
	"testing"

	"kifmm/internal/kernel"
)

// TestVListAllocBudget pins the steady-state allocation count of one warm
// FFT V-list pass on the standard 30k-point ellipsoid tree — the dynamic
// complement of fmmvet's static hotalloc guarantee. The spectrum buffer,
// the per-node spectrum table and the per-worker scratch are engine-owned
// and reused, so what is left is per level, not per octant: the level
// buckets, the target and source lists, and one translation table
// (measured: 101). The budget forbids any per-target or per-interaction
// allocation, which on this tree would run to thousands.
func TestVListAllocBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("30k-point engine build")
	}
	if raceEnabled {
		t.Skip("race instrumentation inflates AllocsPerRun past any budget")
	}
	e := nearFieldEngine(t, kernel.Laplace{})
	e.UseFFTM2L = true
	e.VLI() // warm spectra, scratch, and the spectrum buffer
	zeroDChk(e)
	allocs := testing.AllocsPerRun(3, func() {
		e.VLI()
		zeroDChk(e)
	})
	const budget = 200
	if allocs > budget {
		t.Errorf("warm FFT V-list pass: %.0f allocations, budget %d", allocs, budget)
	}
	t.Logf("warm FFT V-list pass: %.0f allocations (budget %d)", allocs, budget)
}

// TestOperatorCacheAllocs pins the warm-hit allocation count of the two
// copy-on-write operator caches at zero. Both sat on sync.Map before, which
// boxes every lookup key into any — one heap allocation per M2L matrix
// fetch (every dense V-list interaction) and per levelFor table fetch
// (every downward translation of a non-homogeneous kernel); fmmvet's
// hotalloc analyzer surfaced both through the vliDenseNode and downwardNode
// chains.
func TestOperatorCacheAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation inflates AllocsPerRun")
	}
	ops := NewOperators(kernel.Laplace{}, 4, 1e-8)
	ops.M2LAt(2, 2, 0, 0) // build and cache the direction
	if a := testing.AllocsPerRun(100, func() { ops.M2LAt(2, 2, 0, 0) }); a != 0 {
		t.Errorf("warm M2LAt hit: %.0f allocations, want 0", a)
	}

	yuk := NewOperators(kernel.Yukawa{Lambda: 5}, 4, 1e-8)
	yuk.D2DOp(2, 3) // build and cache the per-level table
	if a := testing.AllocsPerRun(100, func() { yuk.D2DOp(2, 3) }); a != 0 {
		t.Errorf("warm non-homogeneous D2DOp hit: %.0f allocations, want 0", a)
	}
}
