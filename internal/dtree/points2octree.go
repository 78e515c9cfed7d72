package dtree

import (
	"sort"

	"kifmm/internal/diag"
	"kifmm/internal/geom"
	"kifmm/internal/morton"
	"kifmm/internal/mpi"
	"kifmm/internal/psort"
)

// pointRec pairs a point (and its density components) with its finest-level
// Morton key for sorting.
type pointRec struct {
	Key morton.Key
	Pt  geom.Point
	Den []float64
}

func pointRecCodec(sdim int) psort.Codec[pointRec] {
	return psort.Codec[pointRec]{
		Enc: func(rs []pointRec) []byte {
			var b []byte
			for _, r := range rs {
				b = r.Key.AppendBinary(b)
				b = appendPoints(b, []geom.Point{r.Pt})
				b = appendFloats(b, r.Den)
			}
			return b
		},
		Dec: func(b []byte) []pointRec {
			var out []pointRec
			for len(b) > 0 {
				var r pointRec
				r.Key, b = morton.DecodeKey(b)
				var pts []geom.Point
				pts, b = decodePoints(b)
				r.Pt = pts[0]
				r.Den, b = decodeFloats(b)
				out = append(out, r)
			}
			return out
		},
	}
}

func lessRec(a, b pointRec) bool { return morton.Compare(a.Key, b.Key) < 0 }

// coarsestBoundary returns the first finest-level key of the coarsest
// octant that contains first but not prevLast — the shallowest admissible
// region boundary between two adjacent ranks.
func coarsestBoundary(prevLast, first morton.Key) morton.Key {
	best := first
	for l := first.Level() - 1; l >= 0; l-- {
		anc := first.AncestorAt(l)
		if anc.Contains(prevLast) {
			break
		}
		best = anc.FirstDescendant(morton.MaxDepth)
	}
	return best
}

// Points2Octree builds the distributed complete linear octree: the input
// points (arbitrarily distributed across ranks) are Morton-sorted with a
// parallel sample sort, each rank derives its covering blocks from the
// global point partition, and blocks holding more than q points are refined
// top-down. The union of all ranks' returned leaves is a complete
// (overlap-free, cube-covering) linear octree in global Morton order; each
// leaf holds its points and their densities.
//
// den may be nil; otherwise it holds sdim components per point and travels
// with the points. prof (optional) receives the PhaseSort timing.
// Collective. A rank the sort leaves without points (a cloud with fewer
// distinct cells than ranks) returns no leaf; a cloud of no point at all
// is one root leaf, on rank 0.
func Points2Octree(c *mpi.Comm, pts []geom.Point, den []float64, sdim, q, maxDepth int, prof *diag.Profile) []Leaf {
	if q < 1 {
		panic("dtree: q must be >= 1")
	}
	if den != nil && len(den) != sdim*len(pts) {
		panic("dtree: density length mismatch")
	}
	recs := make([]pointRec, len(pts))
	for i, p := range pts {
		recs[i] = pointRec{Key: morton.FromPoint(p.X, p.Y, p.Z, morton.MaxDepth), Pt: p}
		if den != nil {
			recs[i].Den = den[i*sdim : (i+1)*sdim]
		}
	}
	stopSort := func() {}
	if prof != nil {
		stopSort = prof.Start(diag.PhaseSort) //fmm:coldcall instrumentation; profiler timestamps never feed back into results
	}
	sorted := psort.SampleSort(c, recs, lessRec, pointRecCodec(sdim))
	stopSort()

	// Region boundaries from the sorted point partition. Rank r's region
	// starts at the COARSEST ancestor of its first point that excludes the
	// last point of the rank before it that holds any (the DENDRO-style block
	// boundary): snapping to the coarsest admissible octant keeps boundary
	// blocks shallow instead of descending to the full key depth, which would
	// otherwise litter the tree with near-empty deep leaves along every rank
	// boundary. The first rank holding points absorbs the leading gap, the
	// last rank the trailing one; a rank the sort left without points gets an
	// empty region (regionStarts) and so no block.
	var ends []byte
	if len(sorted) > 0 {
		ends = sorted[len(sorted)-1].Key.AppendBinary(sorted[0].Key.AppendBinary(nil))
	}
	var prevLast morton.Key
	starts := regionStarts(c.AllGather(ends), func(b []byte) morton.Key {
		first, rest := morton.DecodeKey(b)
		s := coarsestBoundary(prevLast, first)
		prevLast, _ = morton.DecodeKey(rest)
		return s
	})
	var blocks []morton.Key
	if c.Rank() < len(starts) {
		blocks = morton.CoveringRegion(starts, c.Rank())
	}

	// Refine each block over its (contiguous) share of the sorted points.
	var leaves []Leaf
	var refine func(key morton.Key, lo, hi int)
	refine = func(key morton.Key, lo, hi int) {
		if hi-lo <= q || key.Level() >= maxDepth {
			l := Leaf{Key: key}
			if hi > lo {
				l.Pts = make([]geom.Point, hi-lo)
				if sdim > 0 {
					l.Den = make([]float64, (hi-lo)*sdim)
				}
				for i := lo; i < hi; i++ {
					l.Pts[i-lo] = sorted[i].Pt
					if sdim > 0 && sorted[i].Den != nil {
						copy(l.Den[(i-lo)*sdim:], sorted[i].Den)
					}
				}
			}
			leaves = append(leaves, l)
			return
		}
		cur := lo
		for ci := 0; ci < 8; ci++ {
			child := key.Child(ci)
			end := hi
			if ci < 7 {
				boundary := child.LastDescendant(morton.MaxDepth)
				end = cur + sort.Search(hi-cur, func(i int) bool {
					return morton.Compare(sorted[cur+i].Key, boundary) > 0
				})
			}
			refine(child, cur, end)
			cur = end
		}
	}
	cur := 0
	for _, blk := range blocks {
		last := blk.LastDescendant(morton.MaxDepth)
		end := cur + sort.Search(len(sorted)-cur, func(i int) bool {
			return morton.Compare(sorted[cur+i].Key, last) > 0
		})
		refine(blk, cur, end)
		cur = end
	}
	return leaves
}

// RepartitionByWeight redistributes the globally Morton-sorted leaves so
// that per-rank total weights are approximately equal, preserving global
// order (Algorithm 1 of Sundar et al., used by the paper's Section III-B
// load balancing). weights[i] is the work estimate of leaves[i]. Collective.
func RepartitionByWeight(c *mpi.Comm, leaves []Leaf, weights []int64) []Leaf {
	if len(weights) != len(leaves) {
		panic("dtree: weight count mismatch")
	}
	p := c.Size()
	var localTotal int64
	for _, w := range weights {
		localTotal += w
	}
	offset := c.ExScanInt64([]int64{localTotal})[0]
	total := c.SumInt64([]int64{localTotal})[0]
	if total <= 0 {
		total = 1
	}

	parts := make([][]Leaf, p)
	prefix := offset
	for i, l := range leaves {
		mid := 2*prefix + weights[i] // 2× weight midpoint to stay integral
		dst := int(mid * int64(p) / (2 * total))
		if dst >= p {
			dst = p - 1
		}
		parts[dst] = append(parts[dst], l)
		prefix += weights[i]
	}
	enc := make([][]byte, p)
	for i := range parts {
		enc[i] = encodeLeaves(parts[i])
	}
	recv := c.Alltoallv(enc)
	var out []Leaf
	for src := 0; src < p; src++ {
		out = append(out, decodeLeaves(recv[src])...)
	}
	return out
}
