package kifmm

import (
	"context"
	"fmt"
	"sync"
	"time"
	"unsafe"

	"kifmm/internal/kernel"
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

// LeafWeights returns the work of each of leaves (node indices into tree) by
// the engine's one flop count: octantFlops summed over the rows a leaf's own
// tasks run — S2U, V, X, D2D, W, D2T and U, each where the row has work on the
// leaf, V in the spec's mode — and never below 1. It is the per-leaf weight
// the distributed drivers balance their ranks by (Section III-B), read off
// the tree's lists before any engine exists.
func (s EngineSpec) LeafWeights(tree *octree.Tree, leaves []int32) []int64 {
	e := &Engine{Ops: s.Ops, Tree: tree, UseFFTM2L: !s.DenseM2L}
	c := e.flopCosts()
	w := make([]int64, len(leaves))
	for k, i := range leaves {
		var f int64
		for pi := range phases {
			if phases[pi].has(e, i) {
				f += e.octantFlops(&c, pi, i)
			}
		}
		w[k] = max(f, 1)
	}
	return w
}

// Run is the one evaluation entry: it runs the phase table as task graphs,
// times diag.PhaseTotalEval once, and returns the graphs' Record — row times
// and flops, scheduler counters, graph count, Total eval — merging it into
// Prof, where set, under one lock, a failed evaluation's included. Without an
// exchange step that is one graph of all eight rows. A rank of a distributed
// evaluation passes exchange — its communication between the upward pass and
// the translations — and runs a graph of S2U and U2U, then exchange, then a
// graph of the other six rows; the record sums the two graphs and a trace
// records both. An error — a panicking body, or ctx done mid-graph (the error
// wraps ctx.Err()) — leaves the engine's state partial: drop the engine.
//
// Two kinds of work never see a request's context. exchange is a collective
// across ranks: a rank that stopped between its graphs would skip it and
// deadlock its peers, so distributed callers (parfmm.EvaluateRank, and
// through it shard.Plan.Apply) pass context.Background(). And the operator
// and spectrum builds (SharedOperators, SharedTranslations, Prewarm) are
// shared singleflight builds that other requests wait on, so they run under
// context.Background() whatever the caller's context.
func (e *Engine) Run(ctx context.Context, exchange func(), trace *sched.Trace) (Record, error) {
	t0 := time.Now() //fmm:allow nodeterm Total eval feeds the record only; results never read it
	var r Record
	var err error
	for k, rr := range rowRanges(exchange != nil) {
		if k > 0 {
			exchange()
		}
		if err = e.runRows(ctx, rr[0], rr[1], trace, &r); err != nil {
			break
		}
	}
	r.Total = time.Since(t0) //fmm:allow nodeterm Total eval feeds the record only; results never read it
	r.MergeInto(e.Prof)
	if err != nil {
		return r, fmt.Errorf("task-graph evaluation: %w", err)
	}
	return r, nil
}

// The row ranges of Run's graphs: every row, or around an exchange step the
// upward pass and then the rest.
var oneGraph, twoGraphs = [][2]int{{0, numRows}}, [][2]int{{0, pVLI}, {pVLI, numRows}}

func rowRanges(exchange bool) [][2]int {
	if exchange {
		return twoGraphs
	}
	return oneGraph
}

// maxPooled caps a pool's free list; engines beyond the cap are dropped
// for the GC after bursts of concurrency.
const maxPooled = 8

// EnginePool is the free list of engines over one tree and layout: each
// concurrent evaluation of a plan (or of one rank of a sharded plan) checks
// out a private engine and returns it. The engines share what does not
// depend on the densities: the masks and the compiled graphs.
type EnginePool struct {
	spec   EngineSpec
	tree   *octree.Tree
	layout *Layout
	// src and trg are every engine's SrcSub and TrgSub, graphs their
	// schedules: built once for the pool, read-only after.
	src, trg []bool
	graphs   *graphSet

	mu   sync.Mutex
	free []*Engine
}

// NewPool returns an empty pool of engines over the tree and the streaming
// layout it builds for them, without the float32 mirrors only the simulated
// device reads. nLead > 0 marks an asymmetric union tree whose leading nLead
// original points are targets: the pool derives its masks once
// (SetSplitRoles'), and every engine gets them.
func (s EngineSpec) NewPool(tree *octree.Tree, nLead int) *EnginePool {
	p := &EnginePool{spec: s, tree: tree, layout: NewLayout(tree, s.Ops, false), graphs: newGraphSet(!s.DenseM2L)}
	p.src, p.trg = splitRoles(tree, nLead)
	return p
}

// Compile builds the graphs the pool's engines run — the one graph of every
// row, or with exchange the two around a rank's exchange step (Run) — so that
// no evaluation builds one; a graph not compiled here is compiled by the
// first engine to run it, once for the pool. It compiles with an engine
// shell that carries what compile reads and no evaluation state, which
// would otherwise be allocated amid the plan build's garbage.
func (p *EnginePool) Compile(exchange bool) {
	e := &Engine{Ops: p.spec.Ops, Tree: p.tree, Workers: max(1, p.spec.Workers), UseFFTM2L: !p.spec.DenseM2L,
		SrcSub: p.src, TrgSub: p.trg, bk: kernel.AsBatch(p.spec.Ops.Kern)}
	for _, r := range rowRanges(exchange) {
		p.graphs.get(e, r[0], r[1])
	}
}

// MemoryBytes estimates what the pool keeps resident for one evaluation:
// the tree's nodes (at their size in memory), points, permutation (which
// Assemble's trees do not have) and interaction lists (4 B an entry, exact:
// BuildLists gives each list an exact-length window), one engine's per-node
// and per-point state, the layout, the masks and the compiled graphs. It is
// the MemoryBytes of the single-engine plan and of each rank of a sharded
// plan, which the serving layer's byte-budgeted plan cache accounts by.
func (p *EnginePool) MemoryBytes() int64 {
	var lists int64
	for i := range p.tree.Nodes {
		n := &p.tree.Nodes[i]
		lists += int64(len(n.U)+len(n.V)+len(n.W)+len(n.X)) * 4
	}
	ops := p.spec.Ops
	nodes, pts := int64(len(p.tree.Nodes)), int64(len(p.tree.Points))
	engine := nodes*int64(2*ops.UpwardLen()+ops.CheckLen())*8 +
		pts*int64(ops.Kern.SrcDim()+ops.Kern.TrgDim())*8
	return nodes*int64(unsafe.Sizeof(octree.Node{})) + lists + pts*24 + 8*int64(cap(p.tree.Perm)) + engine + p.layout.MemoryBytes() +
		int64(len(p.src)+len(p.trg)) + p.graphs.memoryBytes()
}

// Get checks out a reset engine (densities are the caller's to set).
func (p *EnginePool) Get() *Engine {
	p.mu.Lock()
	var e *Engine
	if n := len(p.free); n > 0 {
		e, p.free = p.free[n-1], p.free[:n-1]
	}
	p.mu.Unlock()
	if e == nil {
		e = p.spec.NewEngine(p.tree, p.layout)
		e.SrcSub, e.TrgSub, e.set = p.src, p.trg, p.graphs
	} else {
		e.Reset()
	}
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
