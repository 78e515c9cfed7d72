// Package dtree implements the paper's distributed tree algorithms: the
// bottom-up construction of a complete distributed linear octree from points
// (Points2Octree, after Sundar-Sampath-Biros/DENDRO), work-weighted
// repartitioning of the Morton-sorted leaves (Section III-B), the geometric
// domain decomposition Ω_k, and the local-essential-tree construction of
// Algorithm 2 with its contributor/user octant exchange.//
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
// rank controls one contiguous interval of finest-level Morton codes. Every
// rank holds the same Partition (built collectively).
type Partition struct {
	P int
	// Start[k] is the first code of Ω_k (inclusive); End[k] the last
	// (inclusive). Every rank owns a leaf (NewPartition), so no interval is
	// empty.
	Start, End []morton.Code
}

// NewPartition gathers the per-rank leaf boundaries. Collective. Every rank
// must own at least one leaf (guaranteed by the tree construction whenever
// n ≫ p; violating it panics with a clear message).
func NewPartition(c *mpi.Comm, leaves []Leaf) *Partition {
	p := c.Size()
	payload := make([]int64, 3)
	if len(leaves) > 0 {
		first, _ := leaves[0].Key.CodeRange()
		payload[0] = 1
		payload[1] = int64(first.Hi)
		payload[2] = int64(first.Lo)
	}
	all := c.AllGather(mpi.Int64sToBytes(payload))

	pt := &Partition{
		P:     p,
		Start: make([]morton.Code, p),
		End:   make([]morton.Code, p),
	}
	for r := 0; r < p; r++ {
		v := mpi.BytesToInt64s(all[r])
		if v[0] != 1 {
			panic("dtree: NewPartition requires every rank to own at least one leaf; " +
				"increase points per rank or reduce the rank count")
		}
		pt.Start[r] = morton.Code{Hi: uint64(v[1]), Lo: uint64(v[2])}
	}
	// Region k runs from its first leaf code up to just before region k+1;
	// rank 0 absorbs the leading codes and the last rank the trailing ones.
	pt.Start[0] = morton.Code{}
	for r := 0; r < p-1; r++ {
		pt.End[r] = pt.Start[r+1].Prev()
	}
	pt.End[p-1] = morton.MaxCode()
	return pt
}

// OverlapRange returns the inclusive rank interval [kLo, kHi] whose regions
// intersect the code interval [lo, hi]; ok is false if no rank overlaps.
func (pt *Partition) OverlapRange(lo, hi morton.Code) (kLo, kHi int, ok bool) {
	// First rank whose End >= lo.
	kLo = sort.Search(pt.P, func(k int) bool {
		return morton.CompareCode(pt.End[k], lo) >= 0
	})
	// Last rank whose Start <= hi.
	kHi = sort.Search(pt.P, func(k int) bool {
		return morton.CompareCode(pt.Start[k], hi) > 0
	}) - 1
	if kLo > kHi || kLo >= pt.P || kHi < 0 {
		return 0, -1, false
	}
	return kLo, kHi, true
}

// Contributors returns the ranks whose regions the octant overlaps
// (𝒫_c in the paper).
func (pt *Partition) Contributors(k morton.Key) []int {
	lo, hi := k.CodeRange()
	kLo, kHi, ok := pt.OverlapRange(lo, hi)
	if !ok {
		return nil
	}
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
		lo, hi := b.CodeRange()
		kLo, kHi, ok := pt.OverlapRange(lo, hi)
		if !ok {
			return
		}
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
	lo, _ := k.CodeRange()
	kLo, _, ok := pt.OverlapRange(lo, lo)
	if !ok {
		return 0
	}
	return kLo
}
