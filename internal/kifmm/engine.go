package kifmm

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"kifmm/internal/diag"
	"kifmm/internal/kernel"
	"kifmm/internal/morton"
	"kifmm/internal/octree"
	"kifmm/internal/sched"
)

// Engine evaluates the FMM phases of Algorithm 1 on one tree. The per-node
// state lives in flat per-node slices so the distributed driver can inject
// ghost densities (reduce-scatter results) and the streaming accelerator can
// repack it into device layouts.
//
// Phase methods only touch octants selected by the tree's interaction lists
// and the Local flags, which is what allows the same engine to run both the
// sequential FMM and each rank's local essential tree.
//
// What a phase is — the octants it walks, which of them have work, its body
// and the name it reports under — is one row of the table in phase.go. One
// executor runs the rows over the per-octant bodies (s2uLeaf, u2uNode, ...):
// the task graph in dag.go, which replaces the paper's phase barriers with
// per-octant dependencies. Every evaluation runs its graphs there — Run (one
// graph, or two around a distributed rank's exchange step), Evaluate and
// EvaluateDAG (all rows), the per-row methods (one row each) — at any worker
// count, one worker included. A graph is compiled once per tree, masks, V
// mode and row range, like the tree's lists: a plan's engines share its
// graphs (EnginePool), and a bare engine compiles its own on first use. Each
// phase's profile time is its task time summed across workers. The tests
// keep a plain sequential walk of the table as the oracle the graph is
// bit-identical to. A body is only ever called for an octant its row's has
// selects; it does not check again.
//
// The near-field bodies run on the batched kernel.Batch panel evaluator
// over the plan-time streaming Layout: a leaf's sources and targets are
// contiguous SoA panels, surfaces are filled from per-level offset grids
// into per-worker scratch, and task time accumulates in the worker's row
// table, folded into the evaluation's Record at graph end — no per-pair
// dynamic dispatch, no per-leaf allocation, no per-task profile locking.
// Flops are the schedule's, totalled once by compile (rowFlops).
type Engine struct {
	Ops  *Operators
	Tree *octree.Tree
	// Layout is the plan-time streaming translation of the tree, shared
	// read-only by every engine of a plan.
	Layout *Layout
	// UseFFTM2L selects the FFT-diagonalized V-list translation instead of
	// dense M2L matrices.
	UseFFTM2L bool
	// Workers bounds within-rank loop parallelism (1 = sequential, matching
	// the paper's CPU configuration of one core per MPI process).
	Workers int
	// Prof, when non-nil, receives per-phase timings and flop counts.
	Prof *diag.Profile
	// SrcSub and TrgSub, when non-nil, mark per node whether its subtree
	// holds at least one source (density-carrying) or target
	// (potential-receiving) point — the asymmetric-evaluation masks set by
	// SetSplitRoles. Phase bodies skip source-side work outside SrcSub and
	// target-side work outside TrgSub; every skipped term is exactly zero
	// (zero densities in, zero fields out), so masked evaluation is
	// bit-identical to evaluating the union symmetrically. nil means every
	// point is both (the symmetric case).
	SrcSub, TrgSub []bool

	// U holds per-node upward-equivalent densities (UpwardLen each).
	U [][]float64
	// D holds per-node downward-equivalent densities (UpwardLen each).
	D [][]float64
	// DChk holds per-node downward-check potential accumulators (CheckLen).
	DChk [][]float64
	// Density holds per-point source densities aligned with Tree.Points
	// (SrcDim components per point).
	Density []float64
	// Potential holds per-point results aligned with Tree.Points (TrgDim
	// components per point).
	Potential []float64

	// bk is the kernel's batched panel evaluator, resolved once so the
	// phase bodies pay one indirect call per panel instead of one dynamic
	// Kernel.Eval dispatch per source-target pair.
	bk kernel.Batch
	// scratch holds one evaluation scratch per worker (ensureScratch).
	scratch []*evalScratch

	// set holds the engine's compiled graphs, a pool's engines sharing one;
	// the embedded *schedule is the one being run or last run (pairRows),
	// whose pairing the bodies read as e.pairs.
	set *graphSet
	*schedule
	// What a run writes, re-armed by pairRows: the inbox, the parked
	// partials (store), and the V row's spectra — spec[a] is source a's
	// while a consumer still needs it, specRefs[a] its consumers still to
	// run, specFree the released buffers.
	inbox    []int32
	store    *partStore
	specMu   sync.Mutex
	spec     [][]float64
	specRefs []atomic.Int32
	specFree [][]float64
}

// NewEngine allocates evaluation state for the tree, building a private
// streaming Layout. Callers that evaluate one tree repeatedly or
// concurrently (Plan.Apply) should build the Layout once and share it via
// NewEngineLayout.
func NewEngine(ops *Operators, tree *octree.Tree) *Engine {
	// A private layout keeps the float32 mirrors: engines built this way
	// (tests, experiments) may be handed to the simulated device.
	return NewEngineLayout(ops, tree, NewLayout(tree, ops, true))
}

// NewEngineLayout allocates evaluation state for the tree on a shared,
// read-only streaming layout (which must have been built from the same tree
// and operators).
func NewEngineLayout(ops *Operators, tree *octree.Tree, layout *Layout) *Engine {
	e := &Engine{
		Ops:       ops,
		Tree:      tree,
		Layout:    layout,
		Workers:   1,
		U:         make([][]float64, len(tree.Nodes)),
		D:         make([][]float64, len(tree.Nodes)),
		DChk:      make([][]float64, len(tree.Nodes)),
		Density:   make([]float64, len(tree.Points)*ops.Kern.SrcDim()),
		Potential: make([]float64, len(tree.Points)*ops.Kern.TrgDim()),
		bk:        kernel.AsBatch(ops.Kern),
	}
	ul, cl := ops.UpwardLen(), ops.CheckLen()
	for i := range tree.Nodes {
		e.U[i] = make([]float64, ul)
		e.D[i] = make([]float64, ul)
		e.DChk[i] = make([]float64, cl)
	}
	return e
}

// srcNode reports whether node i's subtree carries source densities
// (always true in the symmetric case).
func (e *Engine) srcNode(i int32) bool { return e.SrcSub == nil || e.SrcSub[i] }

// trgNode reports whether node i's subtree carries target points
// (always true in the symmetric case).
func (e *Engine) trgNode(i int32) bool { return e.TrgSub == nil || e.TrgSub[i] }

// SetSplitRoles installs the asymmetric-evaluation masks for a union tree
// whose ORIGINAL point indices [0, nLead) are targets and [nLead, n) are
// sources: SrcSub/TrgSub are derived bottom-up from the per-leaf point
// roles. nLead <= 0 restores the symmetric state (every point both roles).
func (e *Engine) SetSplitRoles(nLead int) {
	e.SrcSub, e.TrgSub = splitRoles(e.Tree, nLead)
	e.set = nil // the graphs follow the masks
}

// splitRoles derives the SrcSub and TrgSub masks of a union tree whose
// leading nLead original points are targets; nil, nil for nLead <= 0.
func splitRoles(t *octree.Tree, nLead int) (src, trg []bool) {
	if nLead <= 0 {
		return nil, nil
	}
	nn := len(t.Nodes)
	src, trg = make([]bool, nn), make([]bool, nn)
	for i := range t.Nodes {
		n := &t.Nodes[i]
		if !n.IsLeaf || n.NPoints() == 0 {
			continue
		}
		for p := int(n.PtLo); p < int(n.PtHi); p++ {
			o := p
			if t.Perm != nil {
				o = t.Perm[p]
			}
			if o < nLead {
				trg[i] = true
			} else {
				src[i] = true
			}
		}
	}
	// Parents precede children in Nodes, so a single descending pass
	// propagates the leaf roles to every ancestor.
	for i := nn - 1; i >= 1; i-- {
		p := t.Nodes[i].Parent
		src[p] = src[p] || src[i]
		trg[p] = trg[p] || trg[i]
	}
	return src, trg
}

// SetDensitiesMasked copies caller-ordered SOURCE densities into the
// engine's union layout: original point indices [0, nLead) are zero-density
// targets, and original index nLead+j carries src[j*sd:(j+1)*sd]. nLead <= 0
// degenerates to SetPointDensities.
func (e *Engine) SetDensitiesMasked(src []float64, nLead int) {
	if nLead <= 0 {
		e.SetPointDensities(src)
		return
	}
	sd := e.Ops.Kern.SrcDim()
	if want := (len(e.Tree.Points) - nLead) * sd; len(src) != want {
		panic(fmt.Sprintf("kifmm: masked density length %d, want %d", len(src), want))
	}
	for i := range e.Tree.Points {
		o := i
		if e.Tree.Perm != nil {
			o = e.Tree.Perm[i]
		}
		d := e.Density[i*sd : (i+1)*sd]
		if o < nLead {
			clear(d)
		} else {
			copy(d, src[(o-nLead)*sd:(o-nLead+1)*sd])
		}
	}
}

// Reset zeroes all evaluation state (densities are kept).
func (e *Engine) Reset() {
	for i := range e.U {
		clear(e.U[i])
		clear(e.D[i])
		clear(e.DChk[i])
	}
	clear(e.Potential)
}

// evalScratch is one worker's reusable evaluation state: surface coordinate
// panels, check/equivalent temporaries, the FFT V-list accumulator, and its
// table of task time per row. One scratch is owned by at most one worker at a
// time (sched.Graph.Run gives a worker index to one task at a time), so
// the bodies run without locks and without per-octant allocation.
type evalScratch struct {
	chk        []float64      // CheckLen: check potentials / MulVec temporary
	up         []float64      // UpwardLen: equivalent-density temporary
	sx, sy, sz []float64      // NumSurf: surface coordinate panel
	vgrid      []float64      // GridLen: real-grid scratch for the half-spectrum FFTs
	vacc       []float64      // 8·AccLen: one frequency accumulator per sibling target
	vsort      []uint64       // one sibling group's V interactions as vOrder<<41 | dirSlot<<32 | node, sorted
	vops       []hadamardOp   // one parent direction's Hadamard triples, in vOrder
	rows       [numRows]int64 // task time (ns) per phase row, folded at graph end
}

// surf returns the scratch surface panel slices.
func (s *evalScratch) surf() (sx, sy, sz []float64) { return s.sx, s.sy, s.sz }

// grid returns the worker's real-grid FFT scratch of length n.
func (s *evalScratch) grid(n int) []float64 {
	if len(s.vgrid) != n {
		//fmm:allow hotalloc per-worker scratch grows once per shape change, then is reused
		s.vgrid = make([]float64, n)
	}
	return s.vgrid
}

// fftAccs returns k ≤ 8 zeroed frequency-space accumulators of length n
// each (SoA re/im panels per target component), contiguous, out of the
// worker's buffer of eight — one per child of a parent — which is reused
// while the shape matches.
func (s *evalScratch) fftAccs(k, n int) []float64 {
	if len(s.vacc) != 8*n {
		//fmm:allow hotalloc per-worker scratch grows once per shape change, then is reused
		s.vacc = make([]float64, 8*n)
		return s.vacc[:k*n]
	}
	acc := s.vacc[:k*n]
	clear(acc)
	return acc
}

// ensureScratch returns the per-worker scratch slice, growing it to at
// least n entries (the scheduler's default for n < 1). Scratches persist
// across phases and Apply calls, so the near-field bodies allocate
// O(workers) once per engine, not per call.
func (e *Engine) ensureScratch(n int) []*evalScratch {
	if n < 1 {
		n = sched.DefaultWorkers()
	}
	for len(e.scratch) < n {
		ns := e.Ops.NumSurf()
		e.scratch = append(e.scratch, &evalScratch{
			chk: make([]float64, e.Ops.CheckLen()),
			up:  make([]float64, e.Ops.UpwardLen()),
			sx:  make([]float64, ns),
			sy:  make([]float64, ns),
			sz:  make([]float64, ns),
		})
	}
	return e.scratch
}

// s2uLeaf is the per-octant S2U body: writes e.U[i] from leaf i's points.
// The leaf's sources are a contiguous SoA panel of the layout; the
// upward-check surface is filled into worker scratch from the per-level
// offset grid.
//
//fmm:hotpath
func (e *Engine) s2uLeaf(i int32, s *evalScratch) {
	n := &e.Tree.Nodes[i]
	L := e.Layout
	sd := e.Ops.Kern.SrcDim()
	ux, uy, uz := s.surf()
	L.OuterSurf(i, ux, uy, uz)
	chk := s.chk
	clear(chk)
	lo, hi := int(n.PtLo), int(n.PtHi)
	e.bk.EvalPanel(ux, uy, uz, L.PX[lo:hi], L.PY[lo:hi], L.PZ[lo:hi],
		e.Density[lo*sd:hi*sd], chk, -1)
	m, scale := e.Ops.S2UOp(n.Key.Level())
	tmp := s.up
	m.MulVec(tmp, chk)
	u := e.U[i]
	for x := range tmp {
		u[x] += scale * tmp[x]
	}
}

// u2uNode is the per-octant U2U body: accumulates node i's children into
// e.U[i]. Requires every child's U to be final.
//
//fmm:hotpath
func (e *Engine) u2uNode(i int32, _ *evalScratch) {
	n := &e.Tree.Nodes[i]
	for ci, cj := range n.Children {
		if cj == octree.NoNode {
			continue
		}
		m := e.Ops.U2UOp(n.Key.Level(), ci)
		m.MulVecAdd(e.U[i], e.U[cj])
	}
}

// vliDenseNode is the per-octant dense V-list body: accumulates every
// source's M2L translation into e.DChk[i], in V-list order.
//
//fmm:hotpath
func (e *Engine) vliDenseNode(i int32, s *evalScratch) {
	t := e.Tree
	n := &t.Nodes[i]
	tmp := s.chk
	for _, a := range n.V {
		if !e.srcNode(a) {
			continue
		}
		dx, dy, dz := dirBetween(t.Nodes[a].Key, n.Key)
		m, scale := e.Ops.M2LAt(n.Key.Level(), dx, dy, dz)
		m.MulVec(tmp, e.U[a])
		for x := range tmp {
			e.DChk[i][x] += scale * tmp[x]
		}
	}
}

// dirBetween returns the (trg − src) anchor offset in units of the common
// octant side; both keys must be at the same level.
func dirBetween(src, trg morton.Key) (int, int, int) {
	s := int64(src.SideUnits())
	return int((int64(trg.X) - int64(src.X)) / s),
		int((int64(trg.Y) - int64(src.Y)) / s),
		int((int64(trg.Z) - int64(src.Z)) / s)
}

// xliNode is the per-octant X-list body: accumulates X-list source points
// into e.DChk[i], in list order. An entry whose link serves W ⟷ X (pairing)
// runs EvalPair, which adds into e.DChk[i] now and parks leaf a's W partial,
// from U[i] on the same surface, for W(a). Must run after node i's V-list
// contributions (the task graph chains the two tasks per octant) and, where
// it serves, after node i's upward pass.
//
//fmm:hotpath
func (e *Engine) xliNode(i int32, s *evalScratch) {
	t := e.Tree
	n := &t.Nodes[i]
	L := e.Layout
	sd, td := e.Ops.Kern.SrcDim(), e.Ops.Kern.TrgDim()
	dx, dy, dz := s.surf()
	L.InnerSurf(i, dx, dy, dz)
	_, links, _ := e.pairs.lists(t, i)
	for k, a := range n.X {
		if !e.srcNode(a) {
			continue
		}
		an := &t.Nodes[a]
		lo, hi := int(an.PtLo), int(an.PtHi)
		if l := links[k]; l >= 0 {
			e.bk.EvalPair(dx, dy, dz, L.PX[lo:hi], L.PY[lo:hi], L.PZ[lo:hi],
				e.U[i], e.Density[lo*sd:hi*sd], e.DChk[i], e.give(l, (hi-lo)*td))
			continue
		}
		e.bk.EvalPanel(dx, dy, dz, L.PX[lo:hi], L.PY[lo:hi], L.PZ[lo:hi],
			e.Density[lo*sd:hi*sd], e.DChk[i], -1)
	}
}

// downwardNode is the per-octant downward body: shifts the parent's
// downward field into e.DChk[i] and solves for e.D[i]. Requires the
// parent's D to be final and all of node i's V/X contributions done.
//
//fmm:hotpath
func (e *Engine) downwardNode(i int32, s *evalScratch) {
	n := &e.Tree.Nodes[i]
	if n.Parent != octree.NoNode {
		ci := n.Key.ChildIndex()
		m, scale := e.Ops.D2DOp(n.Key.Level()-1, ci)
		tmp := s.chk
		m.MulVec(tmp, e.D[n.Parent])
		for x := range tmp {
			e.DChk[i][x] += scale * tmp[x]
		}
	}
	pm, pscale := e.Ops.DC2DEOp(n.Key.Level())
	tmp2 := s.up
	pm.MulVec(tmp2, e.DChk[i])
	d := e.D[i]
	for x := range tmp2 {
		d[x] += pscale * tmp2[x]
	}
}

// wliLeaf is the per-leaf W-list body: accumulates W sources'
// upward-equivalent fields into leaf i's potentials, in list order. Each W
// source's upward-equivalent surface is filled into worker scratch and
// evaluated as one source panel against the leaf's target panel — or, where
// the entry's link takes the partial X(a) parked (pairing), that partial is
// added. Must run after the X task of every source whose partial it takes.
//
//fmm:hotpath
func (e *Engine) wliLeaf(i int32, s *evalScratch) {
	t := e.Tree
	n := &t.Nodes[i]
	L := e.Layout
	td := e.Ops.Kern.TrgDim()
	lo, hi := int(n.PtLo), int(n.PtHi)
	tx, ty, tz := L.PX[lo:hi], L.PY[lo:hi], L.PZ[lo:hi]
	out := e.Potential[lo*td : hi*td]
	ux, uy, uz := s.surf()
	_, _, links := e.pairs.lists(t, i)
	for k, a := range n.W {
		if !e.srcNode(a) {
			continue
		}
		if l := links[k]; l < -1 {
			e.take(l, out)
			continue
		}
		L.InnerSurf(a, ux, uy, uz)
		e.bk.EvalPanel(tx, ty, tz, ux, uy, uz, e.U[a], out, -1)
	}
}

// d2tLeaf is the per-leaf D2T body: adds leaf i's own downward field to its
// potentials. Must run after the leaf's WLI contributions (accumulation
// order) and its downward solve.
//
//fmm:hotpath
func (e *Engine) d2tLeaf(i int32, s *evalScratch) {
	n := &e.Tree.Nodes[i]
	L := e.Layout
	td := e.Ops.Kern.TrgDim()
	dx, dy, dz := s.surf()
	L.OuterSurf(i, dx, dy, dz)
	lo, hi := int(n.PtLo), int(n.PtHi)
	e.bk.EvalPanel(L.PX[lo:hi], L.PY[lo:hi], L.PZ[lo:hi], dx, dy, dz,
		e.D[i], e.Potential[lo*td:hi*td], -1)
}

// uliLeaf is the per-leaf U-list body: the exact direct sum into leaf i's
// potentials, one partial per U-list source panel, in list order. An entry
// whose link serves (pairing) runs EvalPair, which adds the row partial into
// the potentials now and parks the column partial for the other leaf; an
// entry whose link takes adds the partial the other leaf parked. Every other
// entry runs EvalPanel; the self panel (a == i) passes selfOffset 0 — the
// singular diagonal is suppressed by the kernel's Algorithm 4 guard, not by a
// coordinate branch. Must run after the leaf's WLI and D2T contributions
// (accumulation order) and after the U task of every leaf whose partial it
// takes.
//
//fmm:hotpath
func (e *Engine) uliLeaf(i int32, s *evalScratch) {
	t := e.Tree
	n := &t.Nodes[i]
	L := e.Layout
	sd, td := e.Ops.Kern.SrcDim(), e.Ops.Kern.TrgDim()
	lo, hi := int(n.PtLo), int(n.PtHi)
	tx, ty, tz := L.PX[lo:hi], L.PY[lo:hi], L.PZ[lo:hi]
	den := e.Density[lo*sd : hi*sd]
	out := e.Potential[lo*td : hi*td]
	links, _, _ := e.pairs.lists(t, i)
	for k, a := range n.U {
		if !e.srcNode(a) {
			continue
		}
		an := &t.Nodes[a]
		slo, shi := int(an.PtLo), int(an.PtHi)
		switch l := links[k]; {
		case l >= 0:
			e.bk.EvalPair(tx, ty, tz, L.PX[slo:shi], L.PY[slo:shi], L.PZ[slo:shi],
				den, e.Density[slo*sd:shi*sd], out, e.give(l, (shi-slo)*td))
		case l < -1:
			e.take(l, out)
		default:
			selfOff := -1
			if a == i {
				selfOff = 0
			}
			e.bk.EvalPanel(tx, ty, tz, L.PX[slo:shi], L.PY[slo:shi], L.PZ[slo:shi],
				e.Density[slo*sd:shi*sd], out, selfOff)
		}
	}
}

// Evaluate runs the full FMM — upward pass, translations, downward pass and
// direct interactions — as one task graph (EvaluateDAG), panicking if a body
// panicked.
func (e *Engine) Evaluate() {
	if _, err := e.EvaluateDAG(nil); err != nil {
		panic(err)
	}
}

// CheckDensities is the one check of a caller's density vector, made before
// any engine sees it: n points of sd components each, every value finite (a
// NaN or ±Inf density would reach every potential through S2U and the
// V-list). The error is unprefixed; each entry point adds its own.
func CheckDensities(den []float64, n, sd int) error {
	if len(den) != n*sd {
		return fmt.Errorf("%d densities for %d points (want %d per point)", len(den), n, sd)
	}
	for i, d := range den {
		if math.IsNaN(d) || math.IsInf(d, 0) {
			return fmt.Errorf("density %d is not finite", i)
		}
	}
	return nil
}

// SetPointDensities copies caller-ordered densities into the engine using
// the tree's permutation (Build trees only).
func (e *Engine) SetPointDensities(orig []float64) {
	sd := e.Ops.Kern.SrcDim()
	if len(orig) != len(e.Tree.Points)*sd {
		panic(fmt.Sprintf("kifmm: density length %d, want %d", len(orig), len(e.Tree.Points)*sd))
	}
	if e.Tree.Perm == nil {
		copy(e.Density, orig)
		return
	}
	for i, o := range e.Tree.Perm {
		copy(e.Density[i*sd:(i+1)*sd], orig[o*sd:(o+1)*sd])
	}
}

// PointPotentials returns potentials in the caller's original point order
// (Build trees only).
func (e *Engine) PointPotentials() []float64 {
	td := e.Ops.Kern.TrgDim()
	out := make([]float64, len(e.Potential))
	if e.Tree.Perm == nil {
		copy(out, e.Potential)
		return out
	}
	for i, o := range e.Tree.Perm {
		copy(out[o*td:(o+1)*td], e.Potential[i*td:(i+1)*td])
	}
	return out
}
