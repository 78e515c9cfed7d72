package kifmm

import (
	"context"
	"fmt"
	"sync"

	"kifmm/internal/diag"
	"kifmm/internal/octree"
	"kifmm/internal/sched"
)

// EngineSpec is everything that configures an engine, as one value: a solver
// resolves its options into a spec once, and plans, shard ranks and the
// distributed driver carry it to NewEngine unread.
type EngineSpec struct {
	// Ops is the translation-operator set (immutable, shared by every engine).
	Ops *Operators
	// Workers bounds the loop and task-graph parallelism of an evaluation
	// (values below 1 mean 1).
	Workers int
	// DenseM2L swaps the FFT-diagonalized V-list for the dense M2L matrices
	// it is verified against (a test oracle and an ablation).
	DenseM2L bool
}

// Prewarm eagerly builds what an evaluation of tree would otherwise build
// lazily — a non-homogeneous kernel's per-level operator tables and the
// V-list translation spectra (these not for the dense oracle) — so the first
// Apply builds nothing.
func (s EngineSpec) Prewarm(tree *octree.Tree) {
	workers := max(1, s.Workers)
	s.Ops.PrewarmLevels(tree, workers)
	if !s.DenseM2L {
		s.Ops.FFT().PrewarmTree(tree, workers)
	}
}

// NewEngine allocates and configures evaluation state for the tree — the one
// place an engine's settings are applied. layout is the tree's shared
// streaming layout; nil builds a private one that keeps the float32
// coordinate mirrors (the simulated device reads them).
func (s EngineSpec) NewEngine(tree *octree.Tree, layout *Layout) *Engine {
	if layout == nil {
		layout = NewLayout(tree, s.Ops, true)
	}
	e := NewEngineLayout(s.Ops, tree, layout)
	e.UseFFTM2L = !s.DenseM2L
	e.Workers = max(1, s.Workers)
	return e
}

// Run is the one evaluation entry: it times diag.PhaseTotalEval once, runs
// the phase table as task graphs and records the scheduler counters into
// Prof. Without an exchange step that is one graph of all eight rows. A rank
// of a distributed evaluation passes exchange — its communication between the
// upward pass and the translations — and runs a graph of S2U and U2U, then
// exchange, then a graph of the other six rows; the returned stats sum the
// two graphs and a trace records both. An error — a panicking body, or ctx
// done mid-graph (the error wraps ctx.Err()) — leaves the engine's state
// partial: drop the engine.
//
// Two kinds of work never see a request's context. exchange is a collective
// across ranks: a rank that stopped between its graphs would skip it and
// deadlock its peers, so distributed callers (parfmm.EvaluateRank, and
// through it shard.Plan.Apply) pass context.Background(). And the operator
// and spectrum builds (SharedOperators, SharedTranslations, Prewarm) are
// shared singleflight builds that other requests wait on, so they run under
// context.Background() whatever the caller's context.
func (e *Engine) Run(ctx context.Context, exchange func(), trace *sched.Trace) (sched.Stats, error) {
	defer e.timed(diag.PhaseTotalEval)()
	split, graphs := len(phases), int64(1)
	if exchange != nil {
		split, graphs = pVLI, 2
	}
	stats, err := e.runRows(ctx, 0, split, trace)
	if err == nil && exchange != nil {
		exchange()
		var rest sched.Stats
		rest, err = e.runRows(ctx, split, len(phases), trace)
		stats.Add(rest)
	}
	if err != nil {
		return stats, fmt.Errorf("task-graph evaluation: %w", err)
	}
	if prof := e.Prof; prof != nil {
		prof.AddCounter(diag.CounterSchedGraphs, graphs)
		prof.AddCounter(diag.CounterSchedTasks, stats.Tasks)
		prof.AddCounter(diag.CounterSchedSteals, stats.Steals)
		prof.AddCounter(diag.CounterSchedStolen, stats.Stolen)
		prof.AddTime(diag.PhaseSchedIdle, stats.Idle)
	}
	return stats, nil
}

// maxPooled caps a pool's free list; engines beyond the cap are dropped
// for the GC after bursts of concurrency.
const maxPooled = 8

// EnginePool is the free list of engines over one tree and layout: each
// concurrent evaluation of a plan (or of one rank of a sharded plan) checks
// out a private engine and returns it.
type EnginePool struct {
	spec   EngineSpec
	tree   *octree.Tree
	layout *Layout
	nLead  int

	mu   sync.Mutex
	free []*Engine
}

// NewPool returns an empty pool of engines over the tree and its layout.
// nLead > 0 marks an asymmetric union tree whose leading nLead original
// points are targets: every engine gets its masks (SetSplitRoles).
func (s EngineSpec) NewPool(tree *octree.Tree, layout *Layout, nLead int) *EnginePool {
	return &EnginePool{spec: s, tree: tree, layout: layout, nLead: nLead}
}

// Get checks out a reset engine (densities are the caller's to set)
// reporting into prof, which may be nil.
func (p *EnginePool) Get(prof *diag.Profile) *Engine {
	p.mu.Lock()
	var e *Engine
	if n := len(p.free); n > 0 {
		e, p.free = p.free[n-1], p.free[:n-1]
	}
	p.mu.Unlock()
	if e == nil {
		e = p.spec.NewEngine(p.tree, p.layout)
		e.SetSplitRoles(p.nLead)
	} else {
		e.Reset()
	}
	e.Prof = prof
	return e
}

// Put returns an engine whose evaluation completed.
func (p *EnginePool) Put(e *Engine) {
	p.mu.Lock()
	if len(p.free) < maxPooled {
		p.free = append(p.free, e)
	}
	p.mu.Unlock()
}
