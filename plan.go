package kifmm

import (
	"fmt"
	"sync"
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
	f    *FMM
	tree *octree.Tree
	// layout is the plan-time streaming translation of the tree (SoA point
	// panels, per-level surface offsets), built once and shared read-only
	// by every engine this plan checks out.
	layout *ikifmm.Layout
	n      int
	// nTrg > 0 marks an asymmetric plan (Options.Targets): the tree holds
	// the union with targets first, Apply takes densities for the n sources
	// and returns potentials for the nTrg targets.
	nTrg int
	// shard, when non-nil, makes Apply run the coordinated multi-rank
	// evaluation over Options.Shards local essential trees instead of the
	// single-engine phase sequence (Options.Shards > 0).
	shard *shard.Plan

	mu   sync.Mutex
	free []*ikifmm.Engine
	prof *diag.Profile

	evals atomic.Int64
}

// maxFreeEngines caps the per-plan engine free list; engines beyond the cap
// are dropped for the GC after bursts of concurrency.
const maxFreeEngines = 8

// Plan builds the octree, interaction lists, and evaluation state for the
// point set and returns a Plan for repeated evaluations. The returned plan
// is bound to this solver's kernel and options.
func (f *FMM) Plan(points []Point) (*Plan, error) {
	if err := f.checkPoints(points); err != nil {
		return nil, err
	}
	nTrg := len(f.opt.Targets)
	if nTrg > 0 {
		// Asymmetric plan: the tree spans targets and sources, targets
		// first, so original indices < nTrg are targets (SetSplitRoles'
		// convention).
		union := make([]Point, 0, nTrg+len(points))
		union = append(union, f.opt.Targets...)
		union = append(union, points...)
		points = union
	}
	var tree *octree.Tree
	if f.opt.Balanced {
		tree = octree.BuildBalanced(points, f.opt.PointsPerBox, f.opt.MaxDepth)
	} else {
		tree = octree.Build(points, f.opt.PointsPerBox, f.opt.MaxDepth)
	}
	tree.BuildLists(nil)
	if !f.opt.denseM2L {
		// Eagerly, so the first Apply pays no lazy spectrum builds.
		f.ops.FFT().PrewarmTree(tree, f.opt.Workers)
	}
	if f.opt.Shards > 0 {
		// Sharded plan: partition this tree's leaves across R ranks and
		// assemble their local essential trees. The prewarmed spectra above
		// cover every rank (LET V-list levels are a subset of the global
		// tree's), landing in the process-wide cache all shards share.
		sp, err := shard.BuildPlan(tree, shard.Config{
			Ranks:       f.opt.Shards,
			Backend:     f.backend,
			Ops:         f.ops,
			UseFFTM2L:   !f.opt.denseM2L,
			Workers:     f.opt.Workers,
			Float32Near: f.float32Near(),
		})
		if err != nil {
			return nil, fmt.Errorf("kifmm: %w", err)
		}
		return &Plan{f: f, tree: tree, n: len(points), shard: sp}, nil
	}
	// Mirror-free layout: the float32 near field localizes its own panels
	// per call and never reads the layout's float32 coordinate mirrors.
	return &Plan{f: f, tree: tree, layout: ikifmm.NewLayout(tree, f.ops, false), n: len(points) - nTrg, nTrg: nTrg}, nil
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

// ShardTraffic is one (backend, rank) row of the process-wide sharded
// communication counters: cumulative bytes, messages, reduction octant
// records, and exchange rounds across every sharded Apply in this process.
type ShardTraffic = shard.Traffic

// ShardTrafficStats returns the process-wide sharded-communication traffic
// rows, sorted by backend then rank — the scoreboard for comparing the
// hypercube reduction against the direct point-to-point scheme. The serving
// layer exposes these on /metrics.
func ShardTrafficStats() []ShardTraffic {
	return shard.Metrics.Rows()
}

// NumPoints returns the number of source points the plan was built for
// (which is every point of a symmetric plan).
func (p *Plan) NumPoints() int { return p.n }

// NumTargets returns the target count of an asymmetric plan
// (Options.Targets), 0 for symmetric plans.
func (p *Plan) NumTargets() int { return p.nTrg }

// Evaluations returns how many Apply calls have completed.
func (p *Plan) Evaluations() int64 { return p.evals.Load() }

// SetProfile attaches a diag profile that receives per-phase timings and
// flop counts from subsequent Apply calls (nil detaches). Used by the
// serving layer to aggregate phase metrics across requests.
func (p *Plan) SetProfile(prof *diag.Profile) {
	p.mu.Lock()
	p.prof = prof
	p.mu.Unlock()
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

// ShardBackend returns the communication backend name of a sharded plan
// ("" for single-engine plans).
func (p *Plan) ShardBackend() string {
	if p.shard == nil {
		return ""
	}
	return p.shard.Backend()
}

// MemoryBytes estimates the plan's resident size: tree points and
// interaction lists plus one engine's per-node and per-point state. The
// serving layer uses it for cache accounting.
func (p *Plan) MemoryBytes() int64 {
	if p.shard != nil {
		// Global tree (kept for the lifetime of the plan) plus every rank's
		// LET, layout, and engine state.
		nodes := int64(len(p.tree.Nodes))
		pts := int64(len(p.tree.Points))
		return nodes*120 + pts*(24+8) + p.shard.MemoryBytes()
	}
	return ikifmm.ResidentBytes(p.tree, p.f.ops, p.layout)
}

// getEngine checks out a reset engine bound to the plan's tree.
func (p *Plan) getEngine() *ikifmm.Engine {
	p.mu.Lock()
	var eng *ikifmm.Engine
	if n := len(p.free); n > 0 {
		eng = p.free[n-1]
		p.free = p.free[:n-1]
	}
	prof := p.prof
	p.mu.Unlock()
	if eng == nil {
		eng = ikifmm.NewEngineLayout(p.f.ops, p.tree, p.layout)
		eng.UseFFTM2L = !p.f.opt.denseM2L
		eng.Workers = p.f.opt.Workers
		eng.SetSplitRoles(p.nTrg)
		if p.f.float32Near() {
			eng.SetFloat32NearField(true)
		}
	} else {
		eng.Reset()
	}
	eng.Prof = prof
	return eng
}

func (p *Plan) putEngine(eng *ikifmm.Engine) {
	p.mu.Lock()
	if len(p.free) < maxFreeEngines {
		p.free = append(p.free, eng)
	}
	p.mu.Unlock()
}

// Apply evaluates the potentials for one density vector on the prebuilt
// tree, returned in input point order with PotentialDim components per
// point. It runs the full FMM phase sequence but skips tree construction,
// list building, and operator setup. With Options.Workers > 1 the phases run
// as a dependency task graph on the internal scheduler, otherwise as the
// paper's barrier-separated loops (bit-identical results either way).
func (p *Plan) Apply(densities []float64) ([]float64, error) {
	if p.shard != nil {
		out, err := p.shard.Apply(densities)
		if err != nil {
			return nil, fmt.Errorf("kifmm: %w", err)
		}
		p.evals.Add(1)
		return out, nil
	}
	out, _, err := p.apply(densities, nil)
	return out, err
}

// ApplyTraced is Apply plus a Chrome trace_event capture of the scheduler's
// execution: one timeline row per worker, one slice per per-octant task.
// Write the returned JSON to a file and open it at chrome://tracing (or
// ui.perfetto.dev). Tracing forces the task-graph execution path at any
// worker count; it errors on sharded plans, which coordinate their ranks
// themselves.
func (p *Plan) ApplyTraced(densities []float64) (potentials []float64, trace []byte, err error) {
	if p.shard != nil {
		return nil, nil, fmt.Errorf("kifmm: tracing requires the task-graph execution path (sharded plans coordinate ranks themselves)")
	}
	tr := sched.NewTrace()
	out, _, err := p.apply(densities, tr)
	if err != nil {
		return nil, nil, err
	}
	return out, tr.JSON(), nil
}

func (p *Plan) apply(densities []float64, trace *sched.Trace) ([]float64, sched.Stats, error) {
	if len(densities) != p.n*p.f.kern.SrcDim() {
		return nil, sched.Stats{}, fmt.Errorf("kifmm: %d densities for %d points (want %d per point)",
			len(densities), p.n, p.f.kern.SrcDim())
	}
	eng := p.getEngine()
	eng.SetDensitiesMasked(densities, p.nTrg)
	var stats sched.Stats
	if p.f.useDAG() || trace != nil {
		var err error
		stats, err = eng.EvaluateDAG(trace)
		if err != nil {
			// A failed graph leaves the engine's state partial; drop it
			// rather than returning it to the free list.
			return nil, stats, fmt.Errorf("kifmm: task-graph evaluation: %w", err)
		}
		if prof := eng.Prof; prof != nil {
			prof.AddCounter(diag.CounterSchedGraphs, 1)
			prof.AddCounter(diag.CounterSchedTasks, stats.Tasks)
			prof.AddCounter(diag.CounterSchedSteals, stats.Steals)
			prof.AddCounter(diag.CounterSchedStolen, stats.Stolen)
			prof.AddTime(diag.PhaseSchedIdle, stats.Idle)
		}
	} else {
		eng.Evaluate()
	}
	out := eng.PointPotentials()
	if p.nTrg > 0 {
		// The union's leading original indices are the targets.
		out = out[:p.nTrg*p.f.kern.TrgDim()]
	}
	p.putEngine(eng)
	p.evals.Add(1)
	return out, stats, nil
}
