package morton

import (
	"slices"
)

// SortKeys sorts keys in place into Morton preorder. slices.SortFunc takes
// the slice as a typed parameter, so sorting allocates nothing (sort.Slice
// would box the slice into any and heap-allocate the comparison closure on
// every call — it sat in the hot delta-re-plan path via dedupKeys).
func SortKeys(ks []Key) {
	slices.SortFunc(ks, Compare)
}

// Dedup removes duplicate keys from a sorted slice in place and returns the
// shortened slice.
func Dedup(ks []Key) []Key {
	if len(ks) == 0 {
		return ks
	}
	w := 1
	for i := 1; i < len(ks); i++ {
		if ks[i] != ks[w-1] {
			ks[w] = ks[i]
			w++
		}
	}
	return ks[:w]
}

// IsComplete reports whether a sorted, linear key slice exactly covers the
// unit cube (its code ranges tile [0, 8^MaxDepth) with no gaps).
func IsComplete(ks []Key) bool {
	if len(ks) == 0 {
		return false
	}
	lo, _ := ks[0].CodeRange()
	if lo != (Code{}) {
		return false
	}
	for i := 0; i+1 < len(ks); i++ {
		_, hi := ks[i].CodeRange()
		next, _ := ks[i+1].CodeRange()
		// next must be hi+1.
		wantLo := hi.Lo + 1
		wantHi := hi.Hi
		if wantLo == 0 {
			wantHi++
		}
		if next.Lo != wantLo || next.Hi != wantHi {
			return false
		}
	}
	_, last := ks[len(ks)-1].CodeRange()
	_, rootHi := Root().CodeRange()
	return last == rootHi
}
