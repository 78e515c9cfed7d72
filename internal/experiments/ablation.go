package experiments

import (
	"fmt"
	"strings"
	"time"

	"kifmm/internal/diag"
	"kifmm/internal/dtree"
	"kifmm/internal/geom"
	"kifmm/internal/kernel"
	"kifmm/internal/kifmm"
	"kifmm/internal/mpi"
	"kifmm/internal/octree"
	"kifmm/internal/parfmm"
	"kifmm/internal/reduce"
)

// ones returns a vector of n ones.
func ones(n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = 1
	}
	return v
}

// Alg3Point is one rank-count sample of the reduce-scatter traffic study.
type Alg3Point struct {
	P int
	// M is the largest per-rank shared-octant count (the paper's m).
	M int
	// MaxSent is the worst rank's total octant records sent (hypercube).
	MaxSent int
	// Bound is the paper's m(3√p−2).
	Bound float64
	// OwnerMaxSent is the worst rank's octant records in the owner-based
	// baseline.
	OwnerMaxSent int
	// OwnerMaxMsgs is the worst rank's message count in the baseline (the
	// O(p) fan-out that failed at 64K ranks).
	OwnerMaxMsgs int
	// HypercubeMsgs is the per-rank message count, always log p.
	HypercubeMsgs int
}

// Alg3Result verifies Algorithm 3's communication bound experimentally and
// contrasts it with the owner-based baseline.
type Alg3Result struct {
	Points []Alg3Point
}

// Alg3Bound runs the traffic study across rank counts.
func Alg3Bound(o Options) *Alg3Result {
	o.defaults()
	res := &Alg3Result{}
	for _, p := range o.Ps {
		if p&(p-1) != 0 {
			continue
		}
		n := o.PerRank * p
		dts := make([]*dtree.DistTree, p)
		items := make([][]reduce.Item, p)
		mpi.Run(p, func(c *mpi.Comm) {
			pts := geom.GenerateChunk(geom.Uniform, n, o.Seed, c.Rank(), p)
			dts[c.Rank()] = dtree.BuildLET(c, dtree.Points2Octree(c, pts, nil, 0, o.Q, 24, nil))
		})
		pt := Alg3Point{P: p}
		for r := 0; r < p; r++ {
			shared := dts[r].SharedOctants()
			if len(shared) > pt.M {
				pt.M = len(shared)
			}
			for _, i := range shared {
				node := &dts[r].Tree.Nodes[i]
				if !node.Local {
					continue
				}
				items[r] = append(items[r], reduce.Item{Key: node.Key, U: []float64{1}})
			}
		}
		hcStats := make([]reduce.Stats, p)
		mpi.Run(p, func(c *mpi.Comm) {
			_, st := reduce.Hypercube(c, dts[c.Rank()].Part, items[c.Rank()], 1)
			hcStats[c.Rank()] = st
		})
		owStats := make([]reduce.Stats, p)
		mpi.Run(p, func(c *mpi.Comm) {
			_, st := reduce.Owner(c, dts[c.Rank()].Part, items[c.Rank()], 1)
			owStats[c.Rank()] = st
		})
		for r := 0; r < p; r++ {
			if hcStats[r].OctantsSentTotal > pt.MaxSent {
				pt.MaxSent = hcStats[r].OctantsSentTotal
			}
			if owStats[r].OctantsSentTotal > pt.OwnerMaxSent {
				pt.OwnerMaxSent = owStats[r].OctantsSentTotal
			}
			if owStats[r].MessagesSent > pt.OwnerMaxMsgs {
				pt.OwnerMaxMsgs = owStats[r].MessagesSent
			}
			pt.HypercubeMsgs = hcStats[r].MessagesSent
		}
		pt.Bound = reduce.Bound(pt.M, p)
		res.Points = append(res.Points, pt)
	}
	return res
}

// Format renders the bound verification table.
func (r *Alg3Result) Format() string {
	var b strings.Builder
	b.WriteString("Algorithm 3 traffic vs the m(3√p−2) bound (octant records, worst rank)\n")
	fmt.Fprintf(&b, "%6s %8s %10s %10s %12s %10s %10s\n",
		"p", "m", "hc sent", "bound", "owner sent", "hc msgs", "owner msgs")
	for _, pt := range r.Points {
		fmt.Fprintf(&b, "%6d %8d %10d %10.0f %12d %10d %10d\n",
			pt.P, pt.M, pt.MaxSent, pt.Bound, pt.OwnerMaxSent, pt.HypercubeMsgs, pt.OwnerMaxMsgs)
	}
	return b.String()
}

// AblationResult compares retired design choices against the paper's:
// owner-based vs hypercube reduction (end-to-end evaluation time) and dense
// vs FFT-diagonalized M2L (sequential V-list time).
type AblationResult struct {
	P             int
	HypercubeEval time.Duration
	OwnerEval     time.Duration
	DenseM2LTime  time.Duration
	FFTM2LTime    time.Duration
	DenseM2LFlops int64
	FFTM2LFlops   int64
	// Tree-construction ablation: worst-rank traffic of the LET exchange
	// vs the retired replicated-global-tree approach.
	LETBytes        int64
	ReplicatedBytes int64
	LETTime         time.Duration
	ReplicatedTime  time.Duration
}

// Ablations runs both comparisons.
func Ablations(o Options) *AblationResult {
	o.defaults()
	p := o.Ps[len(o.Ps)-1]
	n := o.PerRank * p
	res := &AblationResult{P: p}

	// Reduction ablation: the same set-up, then one evaluation with each
	// scheme as the shared octants' reducer.
	cfg := baseConfig(o, kernel.Laplace{}, 6)
	for _, owner := range []bool{false, true} {
		reduceShared := reduce.Hypercube
		if owner {
			reduceShared = reduce.Owner
		}
		results := make([]*parfmm.Result, p)
		mpi.Run(p, func(c *mpi.Comm) {
			pts := geom.GenerateChunk(geom.Uniform, n, o.Seed, c.Rank(), p)
			eng, rank := parfmm.Setup(c, pts, ones(len(pts)), cfg)
			parfmm.EvaluateRank(c, eng, rank.Tree, reduceShared)
			results[c.Rank()] = rank
		})
		_, avg := maxAvg(results, diag.PhaseTotalEval)
		if owner {
			res.OwnerEval = avg
		} else {
			res.HypercubeEval = avg
		}
	}

	// Tree construction ablation: LET vs replicated global tree.
	{
		n := o.PerRank * p
		chunks := make([][]dtree.Leaf, p)
		mpi.Run(p, func(c *mpi.Comm) {
			pts := geom.GenerateChunk(geom.Uniform, n, o.Seed, c.Rank(), p)
			chunks[c.Rank()] = dtree.Points2Octree(c, pts, nil, 0, o.Q, 24, nil)
		})
		letBytes := make([]int64, p)
		repBytes := make([]int64, p)
		t0 := time.Now()
		mpi.Run(p, func(c *mpi.Comm) {
			before := c.Stats().Snap()
			dtree.BuildLET(c, chunks[c.Rank()])
			letBytes[c.Rank()] = before.Delta(c.Stats().Snap()).Bytes
		})
		res.LETTime = time.Since(t0)
		t0 = time.Now()
		mpi.Run(p, func(c *mpi.Comm) {
			_, repBytes[c.Rank()] = dtree.BuildReplicated(c, chunks[c.Rank()])
		})
		res.ReplicatedTime = time.Since(t0)
		for r := 0; r < p; r++ {
			if letBytes[r] > res.LETBytes {
				res.LETBytes = letBytes[r]
			}
			if repBytes[r] > res.ReplicatedBytes {
				res.ReplicatedBytes = repBytes[r]
			}
		}
	}

	// Sequential M2L ablation.
	pts := geom.Generate(geom.Uniform, o.PerRank*4, o.Seed)
	tr := octree.Build(pts, o.Q, 20)
	tr.BuildLists(nil)
	ops := kifmm.NewOperators(kernel.Laplace{}, 6, 1e-9)
	for _, useFFT := range []bool{false, true} {
		e := kifmm.EngineSpec{Ops: ops, Workers: o.Workers, DenseM2L: !useFFT}.NewEngine(tr, nil)
		e.Prof = diag.NewProfile()
		e.SetPointDensities(ones(len(pts)))
		e.S2U()
		e.U2U()
		t0 := time.Now()
		e.VLI()
		d := time.Since(t0)
		if useFFT {
			res.FFTM2LTime = d
			res.FFTM2LFlops = e.Prof.Flops(diag.PhaseVList)
		} else {
			res.DenseM2LTime = d
			res.DenseM2LFlops = e.Prof.Flops(diag.PhaseVList)
		}
	}
	return res
}

// Format renders the ablation summary.
func (r *AblationResult) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Ablations (p=%d)\n", r.P)
	fmt.Fprintf(&b, "reduction scheme: hypercube eval %.3f s vs owner-based %.3f s\n",
		r.HypercubeEval.Seconds(), r.OwnerEval.Seconds())
	fmt.Fprintf(&b, "V-list translation: dense %.3f s (%d flops) vs FFT %.3f s (%d flops)\n",
		r.DenseM2LTime.Seconds(), r.DenseM2LFlops, r.FFTM2LTime.Seconds(), r.FFTM2LFlops)
	fmt.Fprintf(&b, "tree construction traffic (worst rank): LET %d B in %.3f s vs replicated %d B in %.3f s\n",
		r.LETBytes, r.LETTime.Seconds(), r.ReplicatedBytes, r.ReplicatedTime.Seconds())
	return b.String()
}
