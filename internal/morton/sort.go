package morton

import (
	"slices"
)

// SortKeys sorts keys in place into Morton preorder. slices.SortFunc takes
// the slice as a typed parameter, so sorting allocates nothing (sort.Slice
// would box the slice into any and heap-allocate the comparison closure on
// every call). BuildLET and reduce.Hypercube sort octants with it.
func SortKeys(ks []Key) {
	slices.SortFunc(ks, Compare)
}

// IsComplete reports whether a sorted key slice is a complete linear octree:
// the first key starts at the cube's first cell, each key's region is
// followed at once by the next key's, and the last ends at the cube's last
// cell.
func IsComplete(ks []Key) bool {
	if len(ks) == 0 || ks[0].X|ks[0].Y|ks[0].Z != 0 {
		return false
	}
	for i := 0; i+1 < len(ks); i++ {
		if next, ok := ks[i].after(); !ok || ks[i+1].FirstDescendant(MaxDepth) != next {
			return false
		}
	}
	_, more := ks[len(ks)-1].after()
	return !more
}

// after returns the first finest-level cell past k's region in Morton
// order; ok is false when k's region ends at the cube's last cell.
func (k Key) after() (next Key, ok bool) {
	for ; k.L > 0; k = k.Parent() {
		if i := k.ChildIndex(); i < 7 {
			return k.Parent().Child(i + 1).FirstDescendant(MaxDepth), true
		}
	}
	return Key{}, false
}
