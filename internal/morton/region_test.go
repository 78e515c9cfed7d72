package morton

import (
	"math/rand"
	"slices"
	"testing"
)

// keysAreSorted reports whether keys are in nondecreasing Morton preorder.
func keysAreSorted(ks []Key) bool {
	return slices.IsSortedFunc(ks, Compare)
}

// isLinear reports whether the sorted keys are pairwise non-overlapping (no
// key is an ancestor of another).
func isLinear(ks []Key) bool {
	for i := 0; i+1 < len(ks); i++ {
		if ks[i].Contains(ks[i+1]) {
			return false
		}
	}
	return true
}

func TestIsCompleteOnUniformRefinement(t *testing.T) {
	// All octants at level 2 tile the cube.
	var ks []Key
	for i := 0; i < 8; i++ {
		for j := 0; j < 8; j++ {
			ks = append(ks, Root().Child(i).Child(j))
		}
	}
	SortKeys(ks)
	if !IsComplete(ks) {
		t.Fatalf("uniform level-2 refinement should be complete")
	}
	// Remove one octant: no longer complete.
	if IsComplete(ks[1:]) {
		t.Fatalf("missing head octant not detected")
	}
	broken := append([]Key{}, ks...)
	broken = append(broken[:17], broken[18:]...)
	if IsComplete(broken) {
		t.Fatalf("interior gap not detected")
	}
	if IsComplete(ks[:len(ks)-1]) {
		t.Fatalf("missing tail octant not detected")
	}
	if IsComplete(nil) {
		t.Fatalf("empty list cannot be complete")
	}
	// Mixed levels: the first octant refined twice over, the rest whole.
	gc, c0, r := Root().Child(0).Child(0).Children(), Root().Child(0).Children(), Root().Children()
	mixed := slices.Concat(gc[:], c0[1:], r[1:])
	if !IsComplete(mixed) {
		t.Fatalf("mixed-level tree should be complete")
	}
	if IsComplete(append([]Key{Root().Child(0)}, mixed[1:]...)) {
		t.Fatalf("overlapping octants not detected")
	}
}

// TestCoveringRegionTilesInterval cuts the cube at two random cells a < b
// and checks the middle region's covering: sorted and linear, its first
// octant starts at a, each octant ends where the next begins, and the last
// ends just before b.
func TestCoveringRegionTilesInterval(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	first := Root().FirstDescendant(MaxDepth)
	for trial := 0; trial < 100; trial++ {
		a := randKey(rng, MaxDepth).FirstDescendant(MaxDepth)
		b := randKey(rng, MaxDepth).FirstDescendant(MaxDepth)
		if Compare(a, b) > 0 {
			a, b = b, a
		}
		if a == first || a == b {
			continue
		}
		cov := CoveringRegion([]Key{first, a, b}, 1)
		if len(cov) == 0 {
			t.Fatalf("empty covering")
		}
		if !keysAreSorted(cov) || !isLinear(cov) {
			t.Fatalf("covering not sorted/linear")
		}
		if cov[0].FirstDescendant(MaxDepth) != a {
			t.Fatalf("covering does not start at %v", a)
		}
		for i, k := range cov {
			want := b
			if i+1 < len(cov) {
				want = cov[i+1].FirstDescendant(MaxDepth)
			}
			if next, ok := k.after(); !ok || next != want {
				t.Fatalf("octant %d of the covering of [%v, %v) is followed by %v, want %v", i, a, b, next, want)
			}
		}
	}
}

func TestCoveringRegionPartitionOfCubeIsComplete(t *testing.T) {
	// Cut the cube at arbitrary cells; the union of the regions' coverings
	// must be a complete linear octree.
	rng := rand.New(rand.NewSource(4))
	starts := []Key{Root().FirstDescendant(MaxDepth)}
	for len(starts) < 6 {
		k := randKey(rng, MaxDepth).FirstDescendant(MaxDepth)
		if !slices.Contains(starts, k) {
			starts = append(starts, k)
		}
	}
	SortKeys(starts)
	var all []Key
	for i := range starts {
		cov := CoveringRegion(starts, i)
		if cov[0].FirstDescendant(MaxDepth) != starts[i] {
			t.Fatalf("region %d starts at %v, want %v", i, cov[0], starts[i])
		}
		all = append(all, cov...)
	}
	if !keysAreSorted(all) || !isLinear(all) || !IsComplete(all) {
		t.Fatalf("union of range coverings is not a complete linear octree")
	}
}
