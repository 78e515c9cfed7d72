package morton

import (
	"math/rand"
	"testing"
)

// TestSortKeysAllocs pins SortKeys at zero allocations. The sort.Slice
// implementation it replaced boxed the slice into any and heap-allocated
// its comparison closure on every call; BuildLET and reduce.Hypercube sort
// octants with it.
func TestSortKeysAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	keys := make([]Key, 512)
	for i := range keys {
		keys[i] = FromPoint(rng.Float64(), rng.Float64(), rng.Float64(), MaxDepth)
	}
	buf := make([]Key, len(keys))
	a := testing.AllocsPerRun(10, func() {
		copy(buf, keys)
		SortKeys(buf)
	})
	if a != 0 {
		t.Errorf("SortKeys: %.0f allocations per run, want 0", a)
	}
	if !keysAreSorted(buf) {
		t.Fatal("SortKeys left keys unsorted")
	}
}
