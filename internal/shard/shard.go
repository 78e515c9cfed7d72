// Package shard runs one evaluation plan as a coordinated multi-rank
// computation: the plan's global octree leaves are cut into R contiguous
// Morton ranges of near-equal flops (EngineSpec.LeafWeights, the count the
// engine's own schedule totals), one per in-process rank, each rank
// assembles the local essential tree of Algorithm 2 over its share
// (dtree.BuildLET), and every Apply executes
// the paper's distributed evaluation pipeline on each rank
// (parfmm.EvaluateRank) — per-shard upward pass, ghost up-density exchange,
// the shared-octant upward reduction, then the V/X/W/U phases on local
// targets — and gathers the per-rank potentials into one response in input
// point order.
//
// The reduction is reduce.Simple, the one-round point-to-point scheme of
// Kailasa et al., at every rank count. At the R ≤ 16 goroutine ranks a plan
// runs it sends fewer octants and bytes than Algorithm 3's hypercube, returns
// the same bits, and needs no power-of-two rank count; the hypercube stays
// where the paper puts it, under parfmm.Evaluate.
//
// Because the ranks partition the leaves of the ALREADY-BUILT global tree
// (rather than re-running distributed tree construction), every rank's LET
// reproduces the exact interaction-list structure of the single-engine
// plan: a sharded Apply differs from the single-engine evaluation only
// in the floating-point summation order of the shared octants' upward
// densities, which keeps the differential within 1e-12 for any R.
//
// All ranks share the solver's translation operators, and with them the
// V-list spectra their level tables hold: the first compile of a level
// resolves them, and every shard of every plan for the same (kernel, order)
// reads them from there.
package shard

import (
	"fmt"

	"kifmm/internal/dtree"
	"kifmm/internal/kifmm"
	"kifmm/internal/mpi"
	"kifmm/internal/octree"
	"kifmm/internal/parfmm"
	"kifmm/internal/reduce"
)

// Config sizes a sharded plan.
type Config struct {
	// Ranks is the number of in-process ranks R (≥ 1).
	Ranks int
	// Spec configures every rank's engines and, through LeafWeights, weighs
	// the leaves the ranks are cut by. Its operators are shared
	// read-only by the ranks (and, with the spectra they hold, by every plan
	// for the same kernel and order); its Workers is the total
	// budget, split evenly across ranks (each gets max(1, Workers/Ranks)).
	Spec kifmm.EngineSpec
}

// rankState is one rank's setup: its LET, the free list of its engines
// (which holds the streaming layout built over the LET) and the mapping from
// its owned points back to the caller's input order.
type rankState struct {
	dt      *dtree.DistTree
	engines *kifmm.EnginePool
	// ownedNodes are the LET node indices of the owned leaves, aligned with
	// dt.Leaves.
	ownedNodes []int32
	// srcIdx maps this rank's owned points (concatenated leaf by leaf, in
	// Morton order) to original input point indices.
	srcIdx []int32
}

// Plan is a sharded evaluation plan: R per-rank local essential trees plus
// layouts over one partitioned global octree. Like the single-engine plan
// it is safe for concurrent use — each rank of each Apply checks out a
// private engine from the rank's free list.
type Plan struct {
	cfg    Config
	ranks  []*rankState
	n      int // input points
	sd, td int
}

// BuildPlan partitions the global tree's leaves across cfg.Ranks ranks and
// assembles each rank's local essential tree. The tree must have been built
// by octree.Build (it carries the input-order permutation) with interaction
// lists built; it is only read, and the plan keeps none of it but the point
// array its ranks' owned leaves alias. Returns an error — never panics — when
// the partition is infeasible (fewer leaves than ranks).
func BuildPlan(tree *octree.Tree, cfg Config) (*Plan, error) {
	if cfg.Ranks < 1 {
		return nil, fmt.Errorf("shard: need at least one rank, got %d", cfg.Ranks)
	}
	ops := cfg.Spec.Ops
	if ops == nil {
		return nil, fmt.Errorf("shard: nil operators")
	}
	R := cfg.Ranks
	if len(tree.Leaves) < R {
		return nil, fmt.Errorf("shard: %d ranks but the tree has only %d leaf octants; "+
			"reduce shards or points per box", R, len(tree.Leaves))
	}

	// Global leaves in Morton order, weighted by the flops of their own tasks
	// (Section III-B's weighting, the engine's count over the global tree's
	// lists). Leaf point slices alias the tree's point storage (read-only
	// from here on).
	leaves := make([]dtree.Leaf, len(tree.Leaves))
	for i, li := range tree.Leaves {
		n := &tree.Nodes[li]
		leaves[i] = dtree.Leaf{Key: n.Key, Pts: tree.Points[n.PtLo:n.PtHi]}
	}
	bounds := partitionLeaves(cfg.Spec.LeafWeights(tree, tree.Leaves), R)

	// Per-rank LET assembly: collective, one goroutine per rank.
	dts := make([]*dtree.DistTree, R)
	mpi.Run(R, func(c *mpi.Comm) {
		lo, hi := bounds[c.Rank()][0], bounds[c.Rank()][1]
		dts[c.Rank()] = dtree.BuildLET(c, leaves[lo:hi])
	})

	p := &Plan{
		cfg:   cfg,
		ranks: make([]*rankState, R),
		n:     len(tree.Points),
		sd:    ops.Kern.SrcDim(),
		td:    ops.Kern.TrgDim(),
	}
	rankSpec := cfg.Spec
	rankSpec.Workers = cfg.Spec.Workers / R
	for r := 0; r < R; r++ {
		rs := &rankState{dt: dts[r], engines: rankSpec.NewPool(dts[r].Tree, 0)}
		rs.engines.Compile(true) // a rank runs its graphs around the exchange
		lo, hi := bounds[r][0], bounds[r][1]
		for gi := lo; gi < hi; gi++ {
			li := tree.Leaves[gi]
			n := &tree.Nodes[li]
			idx, ok := dts[r].Tree.Index(n.Key)
			if !ok {
				return nil, fmt.Errorf("shard: owned leaf %v missing from rank %d LET", n.Key, r)
			}
			rs.ownedNodes = append(rs.ownedNodes, idx)
			for pt := int(n.PtLo); pt < int(n.PtHi); pt++ {
				orig := pt
				if tree.Perm != nil {
					orig = tree.Perm[pt]
				}
				rs.srcIdx = append(rs.srcIdx, int32(orig))
			}
		}
		p.ranks[r] = rs
	}
	return p, nil
}

// partitionLeaves splits the weight sequence into R contiguous non-empty
// groups with approximately equal totals, returning [lo, hi) index bounds
// per rank. Greedy with a leaves-remaining guard: every rank is guaranteed
// at least one leaf (the caller checked len(w) ≥ R).
//
//fmm:deterministic
func partitionLeaves(w []int64, R int) [][2]int {
	var total int64
	for _, v := range w {
		total += v
	}
	bounds := make([][2]int, R)
	lo := 0
	remaining := total
	for r := 0; r < R; r++ {
		if r == R-1 {
			bounds[r] = [2]int{lo, len(w)}
			break
		}
		target := remaining / int64(R-r)
		var acc int64
		hi := lo
		for hi < len(w) {
			// Leave at least one leaf for each remaining rank.
			if len(w)-hi-1 < R-r-1 {
				break
			}
			if hi > lo && acc+w[hi]/2 > target {
				break
			}
			acc += w[hi]
			hi++
		}
		if hi == lo {
			hi = lo + 1 // guard: always take at least one leaf
			acc = w[lo]
		}
		bounds[r] = [2]int{lo, hi}
		lo = hi
		remaining -= acc
	}
	return bounds
}

// Ranks returns the shard count R.
func (p *Plan) Ranks() int { return p.cfg.Ranks }

// MemoryBytes estimates the plan's resident size across all ranks: the sum
// of the ranks' engine pools' estimates (EnginePool.MemoryBytes), each over
// its LET.
func (p *Plan) MemoryBytes() int64 {
	var totalBytes int64
	for _, rs := range p.ranks {
		totalBytes += rs.engines.MemoryBytes()
	}
	return totalBytes
}

// Apply evaluates the potentials for one density vector (input point order,
// SrcDim components per point) as a coordinated R-rank evaluation and
// returns them in input point order with TrgDim components per point.
func (p *Plan) Apply(densities []float64) ([]float64, error) {
	out, _, err := p.ApplyWithStats(densities)
	return out, err
}

// ApplyWithStats is Apply that also returns the evaluation's record: the
// sum of the ranks' records, with their communication time as ShardComm.
func (p *Plan) ApplyWithStats(densities []float64) ([]float64, kifmm.Record, error) {
	if err := kifmm.CheckDensities(densities, p.n, p.sd); err != nil {
		return nil, kifmm.Record{}, fmt.Errorf("shard: %w", err)
	}
	out := make([]float64, p.n*p.td)
	traffic := make([]RankTraffic, p.cfg.Ranks)
	recs := make([]kifmm.Record, p.cfg.Ranks)

	mpi.Run(p.cfg.Ranks, func(c *mpi.Comm) {
		r := c.Rank()
		rs := p.ranks[r]
		eng := rs.engines.Get()

		// Owned densities in, the shared distributed rank evaluation with the
		// direct scheme completing the shared octants' upward densities,
		// owned potentials out.
		placeDensities(rs, eng, densities, p.sd)
		rec, rst, delta, commDur := parfmm.EvaluateRank(c, eng, rs.dt, reduce.Simple)
		rec.ShardComm = commDur
		recs[r] = rec
		traffic[r] = RankTraffic{
			BytesSent:     delta.Bytes,
			MsgsSent:      delta.Messages,
			RemoteBytes:   delta.RemoteBytes,
			ReduceOctants: int64(rst.OctantsSentTotal),
		}
		gatherPotentials(rs, eng, out, p.td)
		rs.engines.Put(eng)
	})

	var sum kifmm.Record
	for r, t := range traffic {
		Metrics.add(r, t)
		sum.Add(recs[r])
	}
	return out, sum, nil
}

// placeDensities copies the caller-ordered densities of this rank's owned
// points into the engine's tree-ordered density array, leaf by leaf.
//
//fmm:hotpath
//fmm:deterministic
func placeDensities(rs *rankState, eng *kifmm.Engine, densities []float64, sd int) {
	t := rs.dt.Tree
	j := 0
	for _, idx := range rs.ownedNodes {
		n := &t.Nodes[idx]
		for pt := int(n.PtLo); pt < int(n.PtHi); pt++ {
			src := int(rs.srcIdx[j])
			j++
			copy(eng.Density[pt*sd:(pt+1)*sd], densities[src*sd:(src+1)*sd])
		}
	}
}

// gatherPotentials scatters this rank's owned-point potentials back into
// the caller-ordered output. Ranks own disjoint input indices, so
// concurrent gathers write disjoint elements.
//
//fmm:hotpath
//fmm:deterministic
func gatherPotentials(rs *rankState, eng *kifmm.Engine, out []float64, td int) {
	t := rs.dt.Tree
	j := 0
	for _, idx := range rs.ownedNodes {
		n := &t.Nodes[idx]
		for pt := int(n.PtLo); pt < int(n.PtHi); pt++ {
			dst := int(rs.srcIdx[j])
			j++
			copy(out[dst*td:(dst+1)*td], eng.Potential[pt*td:(pt+1)*td])
		}
	}
}
