// Package parfmm is the distributed FMM driver — the paper's end-to-end
// pipeline on each rank:
//
//	setup:      Morton sample sort → Points2Octree → LET (Algorithm 2)
//	            → repartition by the engine's flop count per owned leaf
//	              (EngineSpec.LeafWeights) → LET rebuild
//	evaluation: S2U + U2U (partial upward densities)
//	            → ghost density exchange + hypercube reduce-scatter
//	              (Algorithm 3) for the shared octants' upward densities
//	            → VLI/XLI → downward pass → WLI/D2T/ULI
//
// Each rank evaluates potentials only at the points of the leaves it owns;
// communication happens exactly at the three points the paper identifies
// (exact densities for direct interactions, reduction of partial upward
// densities, broadcast of completed densities — the latter two fused in
// Algorithm 3).
//
// The evaluation line is written once, as EvaluateRank, and its reducer is
// the caller's: Evaluate is Setup followed by it with Algorithm 3's
// reduce.Hypercube, internal/shard runs it on LETs cut from an already-built
// global tree with the one-round reduce.Simple, the owner-reduce ablation
// passes reduce.Owner, and the simulated-device experiments put Exchange
// between their own device phases. This package is also where the two
// reductions' traffic is compared on one input (traffic_test.go).
package parfmm

import (
	"context"
	"encoding/binary"
	"fmt"
	"time"

	"kifmm/internal/diag"
	"kifmm/internal/dtree"
	"kifmm/internal/geom"
	"kifmm/internal/kifmm"
	"kifmm/internal/morton"
	"kifmm/internal/mpi"
	"kifmm/internal/reduce"
)

// Config selects the FMM variant and its parameters.
type Config struct {
	// Q is the maximum number of points per leaf octant.
	Q int
	// MaxDepth caps the octree depth.
	MaxDepth int
	// LoadBalance enables the work-weighted repartition of Section III-B:
	// leaves are weighted by Spec.LeafWeights, the engine's own flop count.
	LoadBalance bool
	// Spec configures the rank's engine and names the solver: Spec.Ops (the
	// kernel, surface order and tolerance) is required, and is typically
	// shared across ranks — Operators are immutable and safe for concurrent
	// use.
	Spec kifmm.EngineSpec
}

func (cfg *Config) defaults() {
	if cfg.Q <= 0 {
		cfg.Q = 50
	}
	if cfg.MaxDepth <= 0 {
		cfg.MaxDepth = 24
	}
}

// Result holds one rank's outputs.
type Result struct {
	// OwnedPoints are the points this rank ended up owning (setup
	// redistributes points), in tree order.
	OwnedPoints []geom.Point
	// Potentials holds TrgDim components per owned point, aligned with
	// OwnedPoints.
	Potentials []float64
	// Prof carries this rank's phase timings and flop counts.
	Prof *diag.Profile
	// Tree is the rank's local essential tree (for inspection).
	Tree *dtree.DistTree
	// EvalCommBytes/EvalCommMsgs count the evaluation-phase traffic (ghost
	// densities + the upward-density reduction).
	EvalCommBytes, EvalCommMsgs int64
}

// Setup runs this rank's share of the distributed set-up: Morton sample
// sort, Points2Octree, the LET of Algorithm 2 and, with cfg.LoadBalance, the
// work-weighted repartition and LET rebuild. pts/densities are this rank's
// share of the input (any distribution). It returns an engine over the
// rank's LET with the owned densities placed — the precondition of
// EvaluateRank — and a Result carrying the LET and the profile the engine
// reports into. Collective. A rank left without leaves (a cloud with fewer
// distinct cells than ranks) joins every collective with nothing to send.
func Setup(c *mpi.Comm, pts []geom.Point, densities []float64, cfg Config) (*kifmm.Engine, *Result) {
	cfg.defaults()
	sd := cfg.Spec.Ops.Kern.SrcDim()
	if len(densities) != sd*len(pts) {
		panic(fmt.Sprintf("parfmm: %d densities for %d points (SrcDim %d)",
			len(densities), len(pts), sd))
	}
	prof := diag.NewProfile()

	stopSetup := prof.Start(diag.PhaseSetup)
	leaves := dtree.Points2Octree(c, pts, densities, sd, cfg.Q, cfg.MaxDepth, prof)
	dt := dtree.BuildLET(c, leaves)
	if cfg.LoadBalance {
		w := cfg.Spec.LeafWeights(dt.Tree, dt.OwnedNodes())
		leaves = dtree.RepartitionByWeight(c, leaves, w)
		dt = dtree.BuildLET(c, leaves)
	}
	stopSetup()

	eng := cfg.Spec.NewEngine(dt.Tree, nil)
	eng.Prof = prof
	placeOwnedDensities(eng, dt)
	return eng, &Result{Prof: prof, Tree: dt}
}

// reducer completes the shared octants' upward densities from every rank's
// partials: reduce.Hypercube (Algorithm 3, Evaluate's), reduce.Simple
// (internal/shard's) or reduce.Owner (the ablation's). Collective.
type reducer = func(c *mpi.Comm, part *dtree.Partition, items []reduce.Item, vecLen int) ([]reduce.Item, reduce.Stats)

// EvaluateRank is the one distributed per-rank evaluation: Engine.Run on the
// rank's LET with Exchange as the communication step between the upward pass
// and the translations. The engine must hold the owned leaves' densities in
// tree order; on return its Potential holds the potentials at the owned
// points. It returns the engine's record of the evaluation and what Exchange
// does. Collective.
func EvaluateRank(c *mpi.Comm, eng *kifmm.Engine, dt *dtree.DistTree, reduceShared reducer) (rec kifmm.Record, st reduce.Stats, traffic mpi.Snapshot, comm time.Duration) {
	rec, err := eng.Run(context.Background(), func() { st, traffic, comm = Exchange(c, eng, dt, reduceShared) }, nil)
	if err != nil {
		panic(err) // a phase body panicked
	}
	return rec, st, traffic, comm
}

// Exchange is the evaluation's communication step, run once the local upward
// pass is done: the exact densities of owned leaves go to the ranks using
// them as U/X-list sources, and reduceShared completes the shared octants'
// upward densities, which are installed into the engine. It returns the
// reduction's statistics, this rank's outgoing traffic and the wall time of
// the step. Collective.
func Exchange(c *mpi.Comm, eng *kifmm.Engine, dt *dtree.DistTree, reduceShared reducer) (reduce.Stats, mpi.Snapshot, time.Duration) {
	snap := c.Stats().Snap()
	t0 := time.Now()
	exchangeGhostDensities(c, eng, dt)
	completed, st := reduceShared(c, dt.Part, partialUpwardItems(eng, dt), eng.Ops.UpwardLen())
	installUpward(eng, dt, completed)
	return st, snap.Delta(c.Stats().Snap()), time.Since(t0)
}

// Evaluate runs the full distributed FMM: pts/densities are this rank's
// share of the input (any distribution); the result holds the potentials at
// the points this rank owns after setup. Collective. The communicator size
// must be a power of two (Algorithm 3's hypercube).
func Evaluate(c *mpi.Comm, pts []geom.Point, densities []float64, cfg Config) *Result {
	eng, res := Setup(c, pts, densities, cfg)
	prof := res.Prof

	rec, _, traffic, comm := EvaluateRank(c, eng, res.Tree, reduce.Hypercube)
	res.EvalCommBytes, res.EvalCommMsgs = traffic.Bytes, traffic.Messages
	prof.AddTime(diag.PhaseComm, comm)
	prof.AddTime(diag.PhaseComp, prof.Time(diag.PhaseTotalEval)-comm)
	prof.AddFlops(diag.PhaseComp, rec.Flops())
	prof.AddFlops(diag.PhaseTotalEval, rec.Flops())

	collectOwned(eng, res)
	return res
}

// placeOwnedDensities copies each owned leaf's densities into the engine's
// tree-ordered density array.
func placeOwnedDensities(eng *kifmm.Engine, dt *dtree.DistTree) {
	sd := eng.Ops.Kern.SrcDim()
	for k, idx := range dt.OwnedNodes() {
		n := &dt.Tree.Nodes[idx]
		copy(eng.Density[int(n.PtLo)*sd:int(n.PtHi)*sd], dt.Leaves[k].Den)
	}
}

// exchangeGhostDensities forwards owned leaf densities to the ranks using
// them as U/X-list sources (the paper's "communicate the exact densities"
// step — local, neighbor-to-neighbor traffic). Collective.
func exchangeGhostDensities(c *mpi.Comm, eng *kifmm.Engine, dt *dtree.DistTree) {
	p := c.Size()
	t := dt.Tree
	sd := eng.Ops.Kern.SrcDim()
	enc := make([][]byte, p)
	for k2 := 0; k2 < p; k2++ {
		var b []byte
		var cnt [4]byte
		binary.LittleEndian.PutUint32(cnt[:], uint32(len(dt.SentLeaves[k2])))
		b = append(b, cnt[:]...)
		for _, idx := range dt.SentLeaves[k2] {
			n := &t.Nodes[idx]
			b = n.Key.AppendBinary(b)
			b = append(b, mpi.Float64sToBytes(eng.Density[int(n.PtLo)*sd:int(n.PtHi)*sd])...)
		}
		enc[k2] = b
	}
	recv := c.Alltoallv(enc)
	for src := 0; src < p; src++ {
		if src == c.Rank() || len(recv[src]) == 0 {
			continue
		}
		b := recv[src]
		cnt := int(binary.LittleEndian.Uint32(b))
		b = b[4:]
		for i := 0; i < cnt; i++ {
			var key morton.Key
			key, b = morton.DecodeKey(b)
			idx, ok := t.Index(key)
			if !ok {
				panic("parfmm: received densities for unknown ghost leaf")
			}
			n := &t.Nodes[idx]
			want := (int(n.PtHi) - int(n.PtLo)) * sd * 8
			copy(eng.Density[int(n.PtLo)*sd:int(n.PtHi)*sd], mpi.BytesToFloat64s(b[:want]))
			b = b[want:]
		}
	}
}

// partialUpwardItems collects this rank's partial upward densities of the
// shared octants it contributes to (its Local octants), in ascending node
// index — i.e. Morton — order, ready for a reducer. The item vectors alias
// the engine's U state.
func partialUpwardItems(eng *kifmm.Engine, dt *dtree.DistTree) []reduce.Item {
	var items []reduce.Item
	for _, i := range dt.SharedOctants() {
		n := &dt.Tree.Nodes[i]
		if !n.Local {
			continue // only contributors inject partials
		}
		items = append(items, reduce.Item{Key: n.Key, U: eng.U[i]})
	}
	return items
}

// installUpward writes completed upward densities from a reduction back
// into the engine; items absent from the LET are ignored.
func installUpward(eng *kifmm.Engine, dt *dtree.DistTree, items []reduce.Item) {
	for _, it := range items {
		if idx, ok := dt.Tree.Index(it.Key); ok {
			copy(eng.U[idx], it.U)
		}
	}
}

// collectOwned extracts the owned points and potentials in tree order.
func collectOwned(eng *kifmm.Engine, res *Result) {
	t := res.Tree.Tree
	td := eng.Ops.Kern.TrgDim()
	for _, idx := range res.Tree.OwnedNodes() {
		n := &t.Nodes[idx]
		res.OwnedPoints = append(res.OwnedPoints, t.Points[n.PtLo:n.PtHi]...)
		res.Potentials = append(res.Potentials, eng.Potential[int(n.PtLo)*td:int(n.PtHi)*td]...)
	}
}
