package kifmm

import (
	"context"
	"fmt"
	"sync/atomic"

	ikifmm "kifmm/internal/kifmm"
	"kifmm/internal/octree"
	"kifmm/internal/sched"
	"kifmm/internal/shard"
)

// Plan is the reusable half of an evaluation: the octree, interaction lists,
// and translation operators built for one point set. Building a plan is the
// expensive, density-independent part of Evaluate; Apply runs the cheap,
// density-dependent part. Iterative solvers (e.g. GMRES over a Stokes
// boundary integral, the paper's motivating use) call Plan once per geometry
// and Apply once per iteration.
//
// A Plan is safe for concurrent use: each Apply checks out a private engine
// (per-call evaluation state) from an internal free list, so concurrent
// Apply calls proceed in parallel and reuse the shared tree and operators.
type Plan struct {
	f *FMM
	// tree is the single-engine plan's octree; a sharded plan drops it once
	// its ranks hold their local essential trees.
	tree *octree.Tree
	n    int
	// nTrg > 0 marks an asymmetric plan (PlanAt): the tree holds the union
	// with targets first, Apply takes densities for the n sources and
	// returns potentials for the nTrg targets.
	nTrg int
	// engines is the free list of the single-engine plan; it holds the
	// plan's streaming layout and compiled task graph, which every engine
	// shares.
	engines *ikifmm.EnginePool
	// shard, when non-nil, makes Apply run the coordinated multi-rank
	// evaluation over Options.Shards local essential trees instead of the
	// single-engine phase sequence (Options.Shards > 0).
	shard *shard.Plan

	evals atomic.Int64
}

// Plan builds the octree, interaction lists, and evaluation state for the
// point set and returns a Plan for repeated evaluations. The returned plan
// is bound to this solver's kernel and options.
func (f *FMM) Plan(points []Point) (*Plan, error) {
	return f.PlanAt(context.Background(), nil, points)
}

// PlanAt is Plan for evaluation at targets distinct from the sources: the
// tree is built over the union of both, Apply takes densities for the
// sources only, and potentials come back for targets only, in targets order.
// The phase bodies skip source-side work in target-only subtrees and
// target-side work in source-only subtrees; every skipped term is exactly
// zero, so the result is bit-identical to evaluating the union with
// zero-density targets while skipping its wasted work. Empty targets give
// the symmetric plan. Sharded solvers (Options.Shards) do not support
// distinct targets.
//
// ctx is checked before each stage — tree, lists, prewarm, layout and
// engine pool with its compiled graph (or the shard partition) — and a done
// ctx ends the build with its error. A stage itself runs to its end: the
// prewarm and the compile fill the process-wide operator and spectrum
// caches, shared singleflight builds other plans wait on, so no request's
// context may stop one midway.
func (f *FMM) PlanAt(ctx context.Context, targets, sources []Point) (*Plan, error) {
	if err := f.checkPoints(sources); err != nil {
		return nil, err
	}
	nTrg := len(targets)
	points := sources
	if nTrg > 0 {
		if f.opt.Shards > 0 {
			return nil, fmt.Errorf("kifmm: evaluation at distinct targets does not support sharded plans")
		}
		if err := checkInCube("target", targets); err != nil {
			return nil, err
		}
		// The tree spans targets and sources, targets first, so original
		// indices < nTrg are targets (SetSplitRoles' convention).
		points = make([]Point, 0, nTrg+len(sources))
		points = append(points, targets...)
		points = append(points, sources...)
	}
	if err := cancelled(ctx); err != nil {
		return nil, err
	}
	tree := octree.Build(points, f.opt.PointsPerBox, f.opt.MaxDepth)
	if err := cancelled(ctx); err != nil {
		return nil, err
	}
	tree.BuildLists(nil)
	if err := cancelled(ctx); err != nil {
		return nil, err
	}
	// Eagerly, so the first Apply pays no lazy operator builds.
	f.spec.Ops.PrewarmLevels(tree, max(1, f.spec.Workers))
	if err := cancelled(ctx); err != nil {
		return nil, err
	}
	if f.opt.Shards > 0 {
		// Sharded plan: partition this tree's leaves across R ranks and
		// assemble their local essential trees; each rank compiles its
		// graphs, reading its spectra from the operators' level tables all
		// shards share. The ranks never read the global tree again, so the plan does
		// not keep it.
		sp, err := shard.BuildPlan(tree, shard.Config{Ranks: f.opt.Shards, Spec: f.spec})
		if err != nil {
			return nil, fmt.Errorf("kifmm: %w", err)
		}
		return &Plan{f: f, n: len(points), shard: sp}, nil
	}
	engines := f.spec.NewPool(tree, nTrg)
	engines.Compile(false) // and with it the spectra the first Apply reads
	return &Plan{f: f, tree: tree, n: len(sources), nTrg: nTrg, engines: engines}, nil
}

// ApplyStats is one Apply's record, returned by ApplyWithStats, ApplyTraced
// and Session.ApplyWithStats: each Table II phase's task time and flops
// (Phase), the scheduler's counters, the graphs run and the wall time
// (Total). A sharded Apply's record sums its ranks' and carries their
// communication time (ShardComm).
type ApplyStats = ikifmm.Record

// CacheStats is a snapshot of a process-wide cache's counters
// (TranslationCache, OperatorCache). Size and Max are in the cache's own
// unit: spectrum bytes for the one, operator sets for the other.
type CacheStats = ikifmm.CacheStats

// TranslationCache returns the counters of the process-wide translation
// spectrum cache shared by every solver: spectra are keyed by (kernel
// identity, surface order, level, direction), built once under singleflight,
// and evicted LRU under a byte bound. The serving layer exposes these on
// /metrics.
func TranslationCache() CacheStats {
	return ikifmm.SharedTranslations.Stats()
}

// OperatorCache returns the counters of the process-wide operator cache
// every solver takes its translation operators from: one set per (kernel
// identity, order, tolerance), built once under singleflight and evicted LRU
// under a fixed count bound. The serving layer exposes these on /metrics.
func OperatorCache() CacheStats {
	return ikifmm.SharedOperators.Stats()
}

// ShardTraffic is one rank's row of the process-wide sharded communication
// counters: cumulative bytes, messages and reduction octant records across
// every sharded Apply in this process.
type ShardTraffic = shard.Traffic

// ShardTrafficStats returns the process-wide sharded-communication traffic
// rows, sorted by rank. The serving layer exposes these on /metrics.
func ShardTrafficStats() []ShardTraffic {
	return shard.Metrics.Rows()
}

// NumPoints returns the number of source points the plan was built for
// (which is every point of a symmetric plan).
func (p *Plan) NumPoints() int { return p.n }

// NumTargets returns the target count of an asymmetric plan (PlanAt), 0 for
// symmetric plans.
func (p *Plan) NumTargets() int { return p.nTrg }

// Evaluations returns how many Apply calls have completed.
func (p *Plan) Evaluations() int64 { return p.evals.Load() }

// Shards returns the rank count of a sharded plan (0 for single-engine
// plans).
func (p *Plan) Shards() int {
	if p.shard == nil {
		return 0
	}
	return p.shard.Ranks()
}

// MemoryBytes estimates the plan's resident size: tree points and
// interaction lists, one engine's per-node and per-point state, the layout
// and the compiled task graph. The serving layer uses it for cache
// accounting.
func (p *Plan) MemoryBytes() int64 {
	if p.shard != nil {
		// Every rank's LET, layout and engine state, plus the global point
		// array (24 B a point) the ranks' owned leaves alias.
		return p.shard.MemoryBytes() + 24*int64(p.n)
	}
	return p.engines.MemoryBytes()
}

// Apply evaluates the potentials for one density vector on the prebuilt
// tree, returned in input point order with PotentialDim components per
// point. It runs the full FMM phase sequence but skips tree construction,
// list building, and operator setup. The phases run as one dependency task
// graph on the internal scheduler with Options.Workers workers
// (bit-identical results at any worker count).
func (p *Plan) Apply(densities []float64) ([]float64, error) {
	return p.ApplyContext(context.Background(), densities)
}

// ApplyContext is Apply under ctx: once ctx is done the task graph starts no
// further task, drains, and the error wraps ctx.Err(). A sharded plan checks
// ctx on entry only, since its ranks' exchange is a collective no rank may
// leave alone.
func (p *Plan) ApplyContext(ctx context.Context, densities []float64) ([]float64, error) {
	out, _, err := p.ApplyWithStats(ctx, densities)
	return out, err
}

// ApplyWithStats is ApplyContext that also returns the Apply's record. A
// failed Apply's record holds its tasks' time and no flops: flops are the
// plan's, and a graph adds them only when it completes.
func (p *Plan) ApplyWithStats(ctx context.Context, densities []float64) ([]float64, ApplyStats, error) {
	if p.shard != nil {
		if err := cancelled(ctx); err != nil {
			return nil, ApplyStats{}, err
		}
		out, rec, err := p.shard.ApplyWithStats(densities)
		if err != nil {
			return nil, rec, fmt.Errorf("kifmm: %w", err)
		}
		p.evals.Add(1)
		return out, rec, nil
	}
	return p.apply(ctx, densities, nil)
}

// ApplyTraced is ApplyWithStats plus a Chrome trace_event capture of the
// scheduler's execution: one timeline row per worker, one slice per
// per-octant task. Write the returned JSON to a file and open it at
// chrome://tracing (or ui.perfetto.dev). It errors on sharded plans, whose
// ranks run concurrently, each its own graphs.
func (p *Plan) ApplyTraced(ctx context.Context, densities []float64) (potentials []float64, trace []byte, stats ApplyStats, err error) {
	if p.shard != nil {
		return nil, nil, ApplyStats{}, fmt.Errorf("kifmm: ApplyTraced does not support sharded plans (their ranks run concurrently, each its own graphs)")
	}
	tr := sched.NewTrace()
	out, rec, err := p.apply(ctx, densities, tr)
	if err != nil {
		return nil, nil, rec, err
	}
	return out, tr.JSON(), rec, nil
}

func (p *Plan) apply(ctx context.Context, densities []float64, trace *sched.Trace) ([]float64, ApplyStats, error) {
	if err := ikifmm.CheckDensities(densities, p.n, p.f.kern.SrcDim()); err != nil {
		return nil, ApplyStats{}, fmt.Errorf("kifmm: %w", err)
	}
	eng := p.engines.Get()
	eng.SetDensitiesMasked(densities, p.nTrg)
	rec, err := eng.Run(ctx, nil, trace)
	if err != nil {
		// A failed or cancelled graph leaves the engine's state partial;
		// drop it rather than returning it to the free list.
		return nil, rec, fmt.Errorf("kifmm: %w", err)
	}
	out := eng.PointPotentials()
	if p.nTrg > 0 {
		// The union's leading original indices are the targets.
		out = out[:p.nTrg*p.f.kern.TrgDim()]
	}
	p.engines.Put(eng)
	p.evals.Add(1)
	return out, rec, nil
}

// cancelled returns ctx's error, wrapped, once ctx is done.
func cancelled(ctx context.Context) error {
	if err := ctx.Err(); err != nil {
		return fmt.Errorf("kifmm: %w", err)
	}
	return nil
}
