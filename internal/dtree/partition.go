// Package dtree implements the paper's distributed tree algorithms: the
// bottom-up construction of a complete distributed linear octree from points
// (Points2Octree, after Sundar-Sampath-Biros/DENDRO), work-weighted
// repartitioning of the Morton-sorted leaves (Section III-B), the geometric
// domain decomposition Ω_k, and the local-essential-tree construction of
// Algorithm 2 with its contributor/user octant exchange.
//
// The whole package is in deterministic scope: for a fixed input and plan
// its outputs must be bit-identical across runs and machines (machines:
// fmmvet's nodeterm; runs: make probe-check, which evaluates twice).
//
//fmm:deterministic
package dtree

import (
	"sort"

	"kifmm/internal/geom"
	"kifmm/internal/morton"
	"kifmm/internal/mpi"
)

// Leaf is one owned leaf octant with its points and (optionally) the
// per-point source densities, which must travel with the points through the
// sort and every repartitioning. Den has SrcDim components per point (nil
// when densities are not tracked).
type Leaf struct {
	Key morton.Key
	Pts []geom.Point
	Den []float64
}

// Partition records the geometric domain decomposition Ω_k induced by the
// distribution of the (complete, Morton-sorted) leaves across ranks: each
// rank controls one half-open interval of finest-level keys. Every rank
// holds the same Partition (built collectively).
//
// A rank without a leaf holds an empty region. Start[k] is the first
// finest-level cell of Ω_k, which runs up to, not including, Start[k+1], so
// an empty rank takes the start of the next rank holding leaves; the region
// of the last rank in Start runs to the cube's end. The empty ranks after
// that one (a repartition can leave some) would start past the cube's end,
// which no key expresses: they have no entry, and len(Start) ≤ P. Start[0]
// is the cube's first cell and Start never falls. No empty rank ever shows
// up in Contributors, Users or OwnerOf.
type Partition struct {
	P     int
	Start []morton.Key
}

// NewPartition gathers the per-rank leaf boundaries. Collective.
func NewPartition(c *mpi.Comm, leaves []Leaf) *Partition {
	var first []byte
	if len(leaves) > 0 {
		first = leaves[0].Key.FirstDescendant(morton.MaxDepth).AppendBinary(nil)
	}
	return &Partition{P: c.Size(), Start: regionStarts(c.AllGather(first), func(b []byte) morton.Key {
		s, _ := morton.DecodeKey(b)
		return s
	})}
}

// regionStarts lays out a Partition's Start from every rank's gathered
// boundary message, empty for a rank holding nothing; start decodes the
// first cell of a rank's region from its message, called in rank order.
// The first rank holding something absorbs the cells before it; an empty
// rank takes the start of the next rank holding something, and the empty
// ranks after the last one get no entry. When no rank holds anything, rank
// 0's region is the whole cube.
func regionStarts(all [][]byte, start func(b []byte) morton.Key) []morton.Key {
	cube := morton.Root().FirstDescendant(morton.MaxDepth)
	starts := make([]morton.Key, 0, len(all))
	for r, b := range all {
		if len(b) == 0 {
			continue
		}
		s := start(b)
		if len(starts) == 0 {
			s = cube
		}
		for len(starts) <= r {
			starts = append(starts, s)
		}
	}
	if len(starts) == 0 {
		starts = append(starts, cube)
	}
	return starts
}

// rankOf returns the rank whose region holds the finest-level cell f: of a
// run of equal starts, the last, the one rank of the run whose region is
// not empty.
func (pt *Partition) rankOf(f morton.Key) int {
	return sort.Search(len(pt.Start), func(k int) bool { return morton.Compare(pt.Start[k], f) > 0 }) - 1
}

// empty reports whether rank r < len(Start) holds an empty region.
func (pt *Partition) empty(r int) bool {
	return r+1 < len(pt.Start) && pt.Start[r] == pt.Start[r+1]
}

// overlap returns the inclusive rank interval [kLo, kHi] whose regions
// intersect the octant k; the empty ranks inside it do not.
func (pt *Partition) overlap(k morton.Key) (kLo, kHi int) {
	return pt.rankOf(k.FirstDescendant(morton.MaxDepth)), pt.rankOf(k.LastDescendant(morton.MaxDepth))
}

// Contributors returns the ranks whose regions the octant overlaps
// (𝒫_c in the paper).
func (pt *Partition) Contributors(k morton.Key) []int {
	kLo, kHi := pt.overlap(k)
	out := make([]int, 0, kHi-kLo+1)
	for r := kLo; r <= kHi; r++ {
		if !pt.empty(r) {
			out = append(out, r)
		}
	}
	return out
}

// Users returns the ranks whose regions intersect the colleague
// neighborhood C(P(k)) of the octant's parent (𝒫_u in the paper) — the
// ranks that may need this octant in their local essential trees. For
// level-0/1 octants (whose parent neighborhood is the whole cube) it
// returns every rank with a non-empty region.
func (pt *Partition) Users(k morton.Key) []int {
	if k.Level() <= 1 {
		out := make([]int, 0, pt.P)
		for r := range pt.Start {
			if !pt.empty(r) {
				out = append(out, r)
			}
		}
		return out
	}
	parent := k.Parent()
	seen := make(map[int]bool)
	var out []int
	add := func(b morton.Key) {
		kLo, kHi := pt.overlap(b)
		for r := kLo; r <= kHi; r++ {
			if !seen[r] && !pt.empty(r) {
				seen[r] = true
				out = append(out, r)
			}
		}
	}
	add(parent)
	for _, nb := range parent.NeighborsSameLevel() {
		add(nb)
	}
	sort.Ints(out)
	return out
}

// OwnerOf returns the rank owning the octant's anchor cell (used by the
// owner-based reduction baseline).
func (pt *Partition) OwnerOf(k morton.Key) int {
	return pt.rankOf(k.FirstDescendant(morton.MaxDepth))
}
