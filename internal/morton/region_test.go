package morton

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
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

func TestSortDedupHelpers(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	ks := make([]Key, 0, 100)
	for i := 0; i < 50; i++ {
		k := randKey(rng, 6)
		ks = append(ks, k, k) // deliberate duplicates
	}
	SortKeys(ks)
	if !keysAreSorted(ks) {
		t.Fatalf("not sorted after SortKeys")
	}
	dd := Dedup(ks)
	for i := 0; i+1 < len(dd); i++ {
		if dd[i] == dd[i+1] {
			t.Fatalf("duplicate survived Dedup")
		}
	}
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
	if IsComplete(nil) {
		t.Fatalf("empty list cannot be complete")
	}
}

func TestCoveringRegionTilesInterval(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 100; trial++ {
		a := randKey(rng, MaxDepth).FirstDescendant(MaxDepth)
		b := randKey(rng, MaxDepth).FirstDescendant(MaxDepth)
		if Compare(a, b) > 0 {
			a, b = b, a
		}
		cov := CoveringRegion(a, b)
		if len(cov) == 0 {
			t.Fatalf("empty covering")
		}
		if !keysAreSorted(cov) || !isLinear(cov) {
			t.Fatalf("covering not sorted/linear")
		}
		// Starts exactly at a, ends exactly at b.
		lo0, _ := cov[0].CodeRange()
		if lo0 != CodeOf(a) {
			t.Fatalf("covering does not start at from")
		}
		_, hiN := cov[len(cov)-1].CodeRange()
		_, bHi := b.CodeRange()
		if hiN != bHi {
			t.Fatalf("covering does not end at to")
		}
		// Contiguity.
		for i := 0; i+1 < len(cov); i++ {
			_, hi := cov[i].CodeRange()
			next, _ := cov[i+1].CodeRange()
			wantLo := hi.Lo + 1
			wantHi := hi.Hi
			if wantLo == 0 {
				wantHi++
			}
			if next.Lo != wantLo || next.Hi != wantHi {
				t.Fatalf("covering not contiguous at %d", i)
			}
		}
	}
}

func TestCoveringRegionPartitionOfCubeIsComplete(t *testing.T) {
	// Split the finest-level code space at arbitrary keys; the union of
	// coverings must be a complete linear octree.
	rng := rand.New(rand.NewSource(4))
	cuts := make([]Key, 0, 5)
	for len(cuts) < 5 {
		k := randKey(rng, MaxDepth).FirstDescendant(MaxDepth)
		dup := k == Root().FirstDescendant(MaxDepth)
		for _, c := range cuts {
			if c == k {
				dup = true
			}
		}
		if !dup {
			cuts = append(cuts, k)
		}
	}
	SortKeys(cuts)
	bounds := append([]Key{Root().FirstDescendant(MaxDepth)}, cuts...)
	var all []Key
	for i, from := range bounds {
		var to Key
		if i+1 < len(bounds) {
			to = prevFinest(bounds[i+1])
		} else {
			to = Root().LastDescendant(MaxDepth)
		}
		all = append(all, CoveringRegion(from, to)...)
	}
	SortKeys(all)
	if !IsComplete(all) {
		t.Fatalf("union of range coverings is not a complete octree")
	}
}

// prevFinest returns the finest-level key immediately preceding k in Morton
// order (k must not be the first key). Test helper only.
func prevFinest(k Key) Key {
	// Walk: decrement the 90-bit code by recomputing from coordinates is
	// complex; instead search by bisection over the shared ancestor chain.
	// Simpler: decrement code via de-interleave.
	lo := CodeOf(k)
	borrowLo := lo.Lo - 1
	hi := lo.Hi
	if lo.Lo == 0 {
		hi--
	}
	return keyFromCode(Code{Hi: hi, Lo: borrowLo})
}

// keyFromCode converts a 90-bit code back to a finest-level key.
func keyFromCode(c Code) Key {
	var x, y, z uint32
	for b := 0; b < MaxDepth; b++ {
		pos := uint(3 * b)
		var bitZ, bitY, bitX uint64
		get := func(p uint) uint64 {
			if p < 64 {
				return (c.Lo >> p) & 1
			}
			return (c.Hi >> (p - 64)) & 1
		}
		bitZ = get(pos)
		bitY = get(pos + 1)
		bitX = get(pos + 2)
		x |= uint32(bitX) << b
		y |= uint32(bitY) << b
		z |= uint32(bitZ) << b
	}
	return Key{X: x, Y: y, Z: z, L: MaxDepth}
}

func TestKeyFromCodeRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		k := randKey(rng, MaxDepth).FirstDescendant(MaxDepth)
		return keyFromCode(CodeOf(k)) == k
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
