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
	"fmt"
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
type Partition struct {
	P int
	// Start[k] is the first finest-level cell of Ω_k, which runs up to,
	// not including, Start[k+1]; the last region runs to the cube's end.
	// Start[0] is the cube's first cell and Start rises strictly: every
	// rank owns a leaf (NewPartition), so no region is empty.
	Start []morton.Key
}

// NewPartition gathers the per-rank leaf boundaries. Collective. Every rank
// must own at least one leaf; when one owns none, every rank returns the
// same error.
func NewPartition(c *mpi.Comm, leaves []Leaf) (*Partition, error) {
	var first []byte
	if len(leaves) > 0 {
		first = leaves[0].Key.FirstDescendant(morton.MaxDepth).AppendBinary(nil)
	}
	all := c.AllGather(first)
	pt := &Partition{P: c.Size(), Start: make([]morton.Key, c.Size())}
	for r, b := range all {
		if len(b) == 0 {
			return nil, fmt.Errorf("dtree: rank %d of %d owns no leaf; "+
				"increase points per rank or reduce the rank count", r, pt.P)
		}
		pt.Start[r], _ = morton.DecodeKey(b)
	}
	// Rank 0 absorbs the cells before its first leaf.
	pt.Start[0] = morton.Root().FirstDescendant(morton.MaxDepth)
	return pt, nil
}

// rankOf returns the rank whose region holds the finest-level cell f.
func (pt *Partition) rankOf(f morton.Key) int {
	return sort.Search(pt.P, func(k int) bool { return morton.Compare(pt.Start[k], f) > 0 }) - 1
}

// overlap returns the inclusive rank interval [kLo, kHi] whose regions
// intersect the octant k.
func (pt *Partition) overlap(k morton.Key) (kLo, kHi int) {
	return pt.rankOf(k.FirstDescendant(morton.MaxDepth)), pt.rankOf(k.LastDescendant(morton.MaxDepth))
}

// Contributors returns the ranks whose regions the octant overlaps
// (𝒫_c in the paper).
func (pt *Partition) Contributors(k morton.Key) []int {
	kLo, kHi := pt.overlap(k)
	out := make([]int, 0, kHi-kLo+1)
	for r := kLo; r <= kHi; r++ {
		out = append(out, r)
	}
	return out
}

// Users returns the ranks whose regions intersect the colleague
// neighborhood C(P(k)) of the octant's parent (𝒫_u in the paper) — the
// ranks that may need this octant in their local essential trees. For
// level-0/1 octants (whose parent neighborhood is the whole cube) it
// returns all ranks.
func (pt *Partition) Users(k morton.Key) []int {
	if k.Level() <= 1 {
		out := make([]int, 0, pt.P)
		for r := 0; r < pt.P; r++ {
			out = append(out, r)
		}
		return out
	}
	parent := k.Parent()
	seen := make(map[int]bool)
	var out []int
	add := func(b morton.Key) {
		kLo, kHi := pt.overlap(b)
		for r := kLo; r <= kHi; r++ {
			if !seen[r] {
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
