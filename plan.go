package kifmm

import (
	"context"
	"fmt"
	"sync/atomic"

	"kifmm/internal/diag"
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
	// layout is the plan-time streaming translation of the tree (SoA point
	// panels, per-level surface offsets), built once and shared read-only
	// by every engine this plan checks out.
	layout *ikifmm.Layout
	n      int
	// nTrg > 0 marks an asymmetric plan (PlanAt): the tree holds the union
	// with targets first, Apply takes densities for the n sources and
	// returns potentials for the nTrg targets.
	nTrg int
	// engines is the free list of the single-engine plan.
	engines *ikifmm.EnginePool
	// shard, when non-nil, makes Apply run the coordinated multi-rank
	// evaluation over Options.Shards local essential trees instead of the
	// single-engine phase sequence (Options.Shards > 0).
	shard *shard.Plan

	prof  atomic.Pointer[diag.Profile]
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
// engine pool (or the shard partition) — and a done ctx ends the build with
// its error. A stage itself runs to its end: the prewarm fills the
// process-wide spectrum and operator caches, shared singleflight builds
// other plans wait on, so no request's context may stop one midway.
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
	// Eagerly, so the first Apply pays no lazy spectrum builds.
	f.spec.Prewarm(tree)
	if err := cancelled(ctx); err != nil {
		return nil, err
	}
	if f.opt.Shards > 0 {
		// Sharded plan: partition this tree's leaves across R ranks and
		// assemble their local essential trees. The prewarmed spectra above
		// cover every rank (LET V-list levels are a subset of the global
		// tree's), landing in the process-wide cache all shards share. The
		// ranks never read the global tree again, so the plan does not keep
		// it.
		sp, err := shard.BuildPlan(tree, shard.Config{Ranks: f.opt.Shards, Spec: f.spec})
		if err != nil {
			return nil, fmt.Errorf("kifmm: %w", err)
		}
		return &Plan{f: f, n: len(points), shard: sp}, nil
	}
	// Mirror-free layout: only the simulated device reads the float32
	// coordinate mirrors.
	layout := ikifmm.NewLayout(tree, f.spec.Ops, false)
	return &Plan{f: f, tree: tree, layout: layout, n: len(sources), nTrg: nTrg,
		engines: f.spec.NewPool(tree, layout, nTrg)}, nil
}

// TranslationCacheStats is a snapshot of the process-wide V-list
// translation-spectrum cache counters (see TranslationCache).
type TranslationCacheStats = ikifmm.TranslationCacheStats

// TranslationCache returns the counters of the process-wide translation
// spectrum cache shared by every solver: spectra are keyed by (kernel
// identity, surface order, level, direction), built once under singleflight,
// and evicted LRU under a byte bound. The serving layer exposes these on
// /metrics.
func TranslationCache() TranslationCacheStats {
	return ikifmm.SharedTranslations.Stats()
}

// OperatorCacheStats is a snapshot of the process-wide translation-operator
// cache counters (see OperatorCache).
type OperatorCacheStats = ikifmm.OperatorCacheStats

// OperatorCache returns the counters of the process-wide operator cache
// every solver takes its translation operators from: one set per (kernel
// identity, order, tolerance), built once under singleflight and evicted LRU
// under a fixed count bound. The serving layer exposes these on /metrics.
func OperatorCache() OperatorCacheStats {
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

// SetProfile attaches a diag profile that receives per-phase timings and
// flop counts from subsequent Apply calls (nil detaches). Used by the
// serving layer to aggregate phase metrics across requests.
func (p *Plan) SetProfile(prof *diag.Profile) {
	p.prof.Store(prof)
	if p.shard != nil {
		p.shard.SetProfile(prof)
	}
}

// Shards returns the rank count of a sharded plan (0 for single-engine
// plans).
func (p *Plan) Shards() int {
	if p.shard == nil {
		return 0
	}
	return p.shard.Ranks()
}

// MemoryBytes estimates the plan's resident size: tree points and
// interaction lists plus one engine's per-node and per-point state. The
// serving layer uses it for cache accounting.
func (p *Plan) MemoryBytes() int64 {
	if p.shard != nil {
		// Every rank's LET, layout and engine state, plus the global point
		// array (24 B a point) the ranks' owned leaves alias.
		return p.shard.MemoryBytes() + 24*int64(p.n)
	}
	return ikifmm.ResidentBytes(p.tree, p.f.spec.Ops, p.layout)
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
	if p.shard != nil {
		if err := cancelled(ctx); err != nil {
			return nil, err
		}
		out, err := p.shard.Apply(densities)
		if err != nil {
			return nil, fmt.Errorf("kifmm: %w", err)
		}
		p.evals.Add(1)
		return out, nil
	}
	out, _, err := p.apply(ctx, densities, nil)
	return out, err
}

// ApplyTraced is ApplyContext plus a Chrome trace_event capture of the
// scheduler's execution: one timeline row per worker, one slice per
// per-octant task. Write the returned JSON to a file and open it at
// chrome://tracing (or ui.perfetto.dev). It errors on sharded plans, whose
// ranks run concurrently, each its own graphs.
func (p *Plan) ApplyTraced(ctx context.Context, densities []float64) (potentials []float64, trace []byte, err error) {
	if p.shard != nil {
		return nil, nil, fmt.Errorf("kifmm: ApplyTraced does not support sharded plans (their ranks run concurrently, each its own graphs)")
	}
	tr := sched.NewTrace()
	out, _, err := p.apply(ctx, densities, tr)
	if err != nil {
		return nil, nil, err
	}
	return out, tr.JSON(), nil
}

func (p *Plan) apply(ctx context.Context, densities []float64, trace *sched.Trace) ([]float64, sched.Stats, error) {
	if err := ikifmm.CheckDensities(densities, p.n, p.f.kern.SrcDim()); err != nil {
		return nil, sched.Stats{}, fmt.Errorf("kifmm: %w", err)
	}
	eng := p.engines.Get(p.prof.Load())
	eng.SetDensitiesMasked(densities, p.nTrg)
	stats, err := eng.Run(ctx, nil, trace)
	if err != nil {
		// A failed or cancelled graph leaves the engine's state partial;
		// drop it rather than returning it to the free list.
		return nil, stats, fmt.Errorf("kifmm: %w", err)
	}
	out := eng.PointPotentials()
	if p.nTrg > 0 {
		// The union's leading original indices are the targets.
		out = out[:p.nTrg*p.f.kern.TrgDim()]
	}
	p.engines.Put(eng)
	p.evals.Add(1)
	return out, stats, nil
}

// cancelled returns ctx's error, wrapped, once ctx is done.
func cancelled(ctx context.Context) error {
	if err := ctx.Err(); err != nil {
		return fmt.Errorf("kifmm: %w", err)
	}
	return nil
}
