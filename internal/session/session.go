// Package session implements stateful delta evaluation for moving-points
// workloads (time-stepped N-body and boundary-integral simulations): a
// Session owns one plan's octree, interaction lists, streaming layout, and
// evaluation engine, and advances them in place as points move, appear, and
// disappear between evaluations.
//
// The step pipeline exploits the locality of small deltas end to end:
//
//   - Migrants are detected with the O(1) Morton containment test — a moved
//     point re-inserts only when it actually left its leaf's octant; points
//     jittering inside a leaf cost a coordinate refresh and nothing else.
//   - Leaves that overflow split and sibling sets that underflow merge via
//     the octree's append-only incremental edits (tombstoned removals keep
//     every surviving node index valid).
//   - Interaction lists are patched locally: only nodes near a structural
//     edit — the morton.BlockOverlaps neighborhood of the edit's parent
//     octant — have their U/V/W/X lists rebuilt; the untouched rest of the
//     tree keeps its lists verbatim.
//   - Translation operators and V-list spectra are never rebuilt: the
//     session shares the solver's Operators and the process-wide
//     translation-spectrum cache, so a small-delta step skips all operator
//     precompute.
//
// When a step's churn defeats locality — the changed-point fraction exceeds
// defaultReplanFraction, or dead tombstones have accumulated — the session
// transparently falls back to a full re-plan (fresh compact tree and lists),
// still reusing the cached operators and spectra.
//
// Determinism: for a fixed session history the evaluated potentials are
// reproducible run to run — tree edits, list patching, and the repack are
// all index-ordered (fmmvet's nodeterm; make probe-check replays forced
// split and merge rounds twice).
//
//fmm:deterministic
package session

import (
	"fmt"
	"sort"
	"sync"

	"kifmm/internal/diag"
	"kifmm/internal/geom"
	ikifmm "kifmm/internal/kifmm"
	"kifmm/internal/morton"
	"kifmm/internal/octree"
)

// Config configures a session. Spec (with its Ops) is required; zero values
// elsewhere take the documented defaults.
type Config struct {
	// Spec configures the session's engine; its operators are shared with
	// the solver and never rebuilt.
	Spec ikifmm.EngineSpec
	// Q is the octree refinement threshold (points per box, default 50).
	Q int
	// MaxDepth caps octree refinement (default 24).
	MaxDepth int

	// replanFraction and maxPatchSites, reachable from in-package tests
	// only, override defaultReplanFraction and defaultMaxPatchSites to force
	// the incremental path or a fallback.
	replanFraction float64
	maxPatchSites  int
}

const (
	// defaultReplanFraction is the changed-point fraction (migrants + adds +
	// removes over live points) above which a step falls back to a full
	// re-plan instead of incremental patching.
	defaultReplanFraction = 0.25
	// defaultMaxPatchSites caps the number of structural-edit sites a step
	// patches locally; beyond it the step rebuilds every interaction list
	// (still without rebuilding the tree).
	defaultMaxPatchSites = 128
)

func (c Config) withDefaults() Config {
	if c.Q == 0 {
		c.Q = 50
	}
	if c.MaxDepth == 0 {
		c.MaxDepth = 24
	}
	if c.replanFraction == 0 {
		c.replanFraction = defaultReplanFraction
	}
	if c.maxPatchSites == 0 {
		c.maxPatchSites = defaultMaxPatchSites
	}
	return c
}

// PointMove relocates one live point.
type PointMove struct {
	ID int
	To geom.Point
}

// Delta is one step's point changes. Moves apply to live IDs; Add assigns
// new IDs (returned in Info.AddedIDs) in order; Remove retires live IDs.
type Delta struct {
	Move   []PointMove
	Add    []geom.Point
	Remove []int
}

// Info reports what one Step did.
type Info struct {
	// Moved counts points that moved without leaving their leaf (coordinate
	// refresh only); Migrated counts points re-inserted elsewhere.
	Moved, Migrated int
	// Added and Removed count point insertions and retirements.
	Added, Removed int
	// AddedIDs are the IDs assigned to Delta.Add points, in order.
	AddedIDs []int
	// Splits and Merges count structural leaf edits.
	Splits, Merges int
	// PatchedNodes counts nodes whose interaction lists were rebuilt
	// (0 when the step had no structural edits).
	PatchedNodes int
	// FullListRebuild marks a step whose structural churn exceeded the patch
	// budget (defaultMaxPatchSites), rebuilding every list on the existing
	// tree.
	FullListRebuild bool
	// Replanned marks a transparent full re-plan (fresh tree and lists).
	Replanned bool
	// LiveNodes and DeadNodes describe the tree after the step.
	LiveNodes, DeadNodes int
}

// Stats are cumulative session counters (service metrics).
type Stats struct {
	Steps, Migrated, PatchedNodes, Replans, Evals int64
}

// Session is a stateful incremental evaluation. It is safe for concurrent
// use: every exported method serializes on mu.
type Session struct {
	cfg Config
	mu  sync.Mutex

	// pos and alive are indexed by point ID (IDs are never reused);
	// leafOf[id] is the tree node holding a live point.
	pos    []geom.Point
	alive  []bool
	leafOf []int32
	live   int

	tree   *octree.Tree
	layout *ikifmm.Layout
	eng    *ikifmm.Engine
	// members[node] lists the live point IDs of a leaf, ascending.
	members [][]int

	// Step scratch, reused across steps.
	sites   []morton.Key
	rank    []int
	ptsBuf  []geom.Point
	permBuf []int

	stats Stats
}

// New builds a session over the initial point set (IDs 0..len(pts)-1).
func New(pts []geom.Point, cfg Config) (*Session, error) {
	cfg = cfg.withDefaults()
	if cfg.Spec.Ops == nil {
		panic("session: Config.Spec.Ops is required")
	}
	if len(pts) == 0 {
		return nil, fmt.Errorf("session: no points")
	}
	cube := geom.UnitCube()
	for i, p := range pts {
		if !cube.Contains(p) {
			return nil, fmt.Errorf("session: point %d (%v) outside the unit cube", i, p)
		}
	}
	s := &Session{
		cfg:    cfg,
		pos:    append([]geom.Point(nil), pts...),
		alive:  make([]bool, len(pts)),
		leafOf: make([]int32, len(pts)),
		live:   len(pts),
	}
	for i := range s.alive {
		s.alive[i] = true
	}
	s.buildTree()
	cfg.Spec.Prewarm(s.tree)
	// Mirror-free: only the simulated device reads the layout's X32 mirrors.
	s.layout = ikifmm.NewLayout(s.tree, cfg.Spec.Ops, false)
	s.eng = cfg.Spec.NewEngine(s.tree, s.layout)
	return s, nil
}

// buildTree constructs a fresh compact tree, lists, and membership from the
// live point set (session construction and re-plans).
func (s *Session) buildTree() {
	ids := make([]int, 0, s.live)
	pts := make([]geom.Point, 0, s.live)
	for id, ok := range s.alive {
		if ok {
			ids = append(ids, id)
			pts = append(pts, s.pos[id])
		}
	}
	t := octree.Build(pts, s.cfg.Q, s.cfg.MaxDepth)
	t.BuildLists(nil)
	members := make([][]int, len(t.Nodes))
	for _, li := range t.Leaves {
		n := &t.Nodes[li]
		m := make([]int, 0, n.NPoints())
		for p := int(n.PtLo); p < int(n.PtHi); p++ {
			id := ids[t.Perm[p]]
			m = append(m, id)
			s.leafOf[id] = li
		}
		sort.Ints(m)
		members[li] = m
	}
	s.tree = t
	s.members = members
	s.repack()
}

// NumPoints returns the live point count.
func (s *Session) NumPoints() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.live
}

// IDs returns the live point IDs, ascending — the order Apply expects
// densities in and returns potentials in.
func (s *Session) IDs() []int {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]int, 0, s.live)
	for id, ok := range s.alive {
		if ok {
			out = append(out, id)
		}
	}
	return out
}

// Points returns the live points in ascending-ID order (the re-plan oracle
// of the differential tests).
func (s *Session) Points() []geom.Point {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]geom.Point, 0, s.live)
	for id, ok := range s.alive {
		if ok {
			out = append(out, s.pos[id])
		}
	}
	return out
}

// SetProfile attaches a diag profile that receives per-phase timings, flop
// counts and scheduler counters from subsequent Apply calls (nil detaches).
func (s *Session) SetProfile(prof *diag.Profile) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.eng.Prof = prof
}

// Stats returns the session's cumulative counters.
func (s *Session) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

// Step applies one delta: moves, adds, and removes, followed by the
// structural maintenance (migration, split/merge, local list patching) or —
// when the delta defeats locality — a transparent full re-plan.
func (s *Session) Step(d Delta) (Info, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	var info Info
	cube := geom.UnitCube()
	for k, mv := range d.Move {
		if mv.ID < 0 || mv.ID >= len(s.alive) || !s.alive[mv.ID] {
			return info, fmt.Errorf("session: move %d targets dead or unknown point %d", k, mv.ID)
		}
		if !cube.Contains(mv.To) {
			return info, fmt.Errorf("session: move %d places point %d outside the unit cube", k, mv.ID)
		}
	}
	for k, p := range d.Add {
		if !cube.Contains(p) {
			return info, fmt.Errorf("session: added point %d (%v) outside the unit cube", k, p)
		}
	}
	removing := make(map[int]bool, len(d.Remove))
	for k, id := range d.Remove {
		if id < 0 || id >= len(s.alive) || !s.alive[id] {
			return info, fmt.Errorf("session: remove %d targets dead or unknown point %d", k, id)
		}
		if removing[id] {
			return info, fmt.Errorf("session: point %d removed twice in one delta", id)
		}
		removing[id] = true
	}
	if s.live+len(d.Add) <= len(d.Remove) {
		return info, fmt.Errorf("session: delta would leave the session empty")
	}

	// Migrant census: the O(1) containment test against the current leaf,
	// before any mutation, so the re-plan decision sees the whole delta.
	migrant := make([]bool, len(d.Move))
	migrants := 0
	for k, mv := range d.Move {
		if removing[mv.ID] {
			continue // removal wins; the move is moot
		}
		if !s.tree.Nodes[s.leafOf[mv.ID]].Key.ContainsPoint(mv.To.X, mv.To.Y, mv.To.Z) {
			migrant[k] = true
			migrants++
		}
	}

	// Commit the point-set mutation (shared by both paths).
	for k, mv := range d.Move {
		s.pos[mv.ID] = mv.To
		if !migrant[k] && !removing[mv.ID] {
			info.Moved++
		}
	}
	for _, id := range d.Remove {
		s.alive[id] = false
		s.live--
	}
	info.Removed = len(d.Remove)
	info.AddedIDs = make([]int, len(d.Add))
	for k, p := range d.Add {
		id := len(s.pos)
		s.pos = append(s.pos, p)
		s.alive = append(s.alive, true)
		s.leafOf = append(s.leafOf, octree.NoNode)
		s.live++
		info.AddedIDs[k] = id
	}
	info.Added = len(d.Add)
	info.Migrated = migrants

	changed := migrants + len(d.Add) + len(d.Remove)
	deadBloat := 3*s.tree.NumDead() > len(s.tree.Nodes)
	if float64(changed) > s.cfg.replanFraction*float64(s.live) || deadBloat {
		s.buildTree()
		s.syncEval()
		info.Replanned = true
		s.stats.Replans++
	} else {
		s.sites = s.sites[:0]
		s.migrate(d, migrant, removing, info.AddedIDs)
		s.restructure(&info)
		s.tree.RebuildLeaves()
		s.patchStep(&info)
		s.repack()
		s.syncEval()
	}
	info.DeadNodes = s.tree.NumDead()
	info.LiveNodes = len(s.tree.Nodes) - info.DeadNodes
	s.stats.Steps++
	s.stats.Migrated += int64(migrants)
	s.stats.PatchedNodes += int64(info.PatchedNodes)
	return info, nil
}

// syncEval refreshes the streaming layout and the engine's per-node state
// after the tree changed under them.
func (s *Session) syncEval() {
	s.layout.Sync(s.tree, s.cfg.Spec.Ops)
	s.eng.Tree = s.tree
	s.eng.SyncTree()
}

// migrate removes retired and migrated points from their leaves and
// re-inserts migrants and additions at their new octants, materializing a
// new leaf when the insertion descends to a childless internal node.
//
//fmm:hotpath
func (s *Session) migrate(d Delta, migrant []bool, removing map[int]bool, added []int) {
	for _, id := range d.Remove {
		s.dropMember(s.leafOf[id], id)
		s.leafOf[id] = octree.NoNode
	}
	for k, mv := range d.Move {
		if !migrant[k] || removing[mv.ID] {
			continue
		}
		s.dropMember(s.leafOf[mv.ID], mv.ID)
		s.insert(mv.ID)
	}
	for _, id := range added {
		s.insert(id)
	}
}

// dropMember removes id from a leaf's membership (order-preserving).
func (s *Session) dropMember(li int32, id int) {
	m := s.members[li]
	k := sort.SearchInts(m, id)
	//fmm:allow hotalloc removal append shifts within the existing backing array; it never grows
	s.members[li] = append(m[:k], m[k+1:]...)
}

// insert attaches a live point to the deepest existing octant containing
// it, creating one new leaf when that octant is a childless interior node.
func (s *Session) insert(id int) {
	p := s.pos[id]
	ni := s.tree.DescendTo(p.X, p.Y, p.Z)
	if n := &s.tree.Nodes[ni]; !n.IsLeaf {
		ci := n.Key.ChildContaining(p.X, p.Y, p.Z)
		c := s.tree.AddChild(ni, ci) //fmm:coldcall new-leaf materialization; structural tree growth is rare and amortized
		s.tree.Nodes[c].IsLeaf = true
		//fmm:allow hotalloc new-leaf materialization branch; runs once per created leaf
		s.members = append(s.members, nil)
		//fmm:allow hotalloc new-leaf materialization branch; runs once per created leaf
		s.sites = append(s.sites, s.tree.Nodes[ni].Key)
		ni = c
	}
	m := s.members[ni]
	k := sort.SearchInts(m, id)
	m = append(m, 0) //fmm:allow hotalloc sorted membership insert; amortized slice growth
	copy(m[k+1:], m[k:])
	m[k] = id
	s.members[ni] = m
	s.leafOf[id] = ni
}

// restructure splits overflowing leaves and merges underflowing sibling
// sets, recording each edit's parent octant as a patch site.
func (s *Session) restructure(info *Info) {
	// Index-ordered scans keep the edit order deterministic. Splits first:
	// node count grows during the loop, but appended leaves are re-checked
	// by the loop bound growing with them.
	for i := 0; i < len(s.tree.Nodes); i++ {
		n := &s.tree.Nodes[i]
		if n.Dead || !n.IsLeaf {
			continue
		}
		if len(s.members[i]) > s.cfg.Q && n.Key.Level() < s.cfg.MaxDepth {
			s.splitLeaf(int32(i))
			info.Splits++
		}
	}
	// Merges: bottom-up (descending index visits children before parents),
	// so a chain of underflowing ancestors collapses in one pass.
	for i := len(s.tree.Nodes) - 1; i >= 0; i-- {
		n := &s.tree.Nodes[i]
		if n.Dead || n.IsLeaf || !s.mergeable(int32(i)) {
			continue
		}
		s.mergeChildren(int32(i))
		info.Merges++
	}
}

// splitLeaf turns an overflowing leaf into an interior node, distributing
// its members among newly created child leaves (only octants that receive
// points are materialized, as in a fresh Build).
func (s *Session) splitLeaf(li int32) {
	n := &s.tree.Nodes[li]
	var buckets [8][]int
	for _, id := range s.members[li] {
		p := s.pos[id]
		ci := n.Key.ChildContaining(p.X, p.Y, p.Z)
		buckets[ci] = append(buckets[ci], id)
	}
	s.members[li] = nil
	n.IsLeaf = false
	n.PtLo, n.PtHi = 0, 0
	s.sites = append(s.sites, n.Key)
	for ci, ids := range buckets {
		if len(ids) == 0 {
			continue
		}
		c := s.tree.AddChild(li, ci)
		s.tree.Nodes[c].IsLeaf = true
		s.members = append(s.members, ids)
		for _, id := range ids {
			s.leafOf[id] = c
		}
		// The recursion of a fresh Build falls out of the caller's growing
		// index scan: the appended child is revisited and split if it still
		// overflows.
	}
}

// mergeable reports whether every existing child of node i is a leaf and
// their total membership is at most Q. The threshold mirrors Build's split
// condition (> Q) exactly, which keeps the session's populated leaves
// octant-for-octant identical to a fresh Build of the live point set —
// the property behind the differential guarantee that session evaluation
// matches a fresh plan (extra empty/tombstoned octants only ever add
// exact-zero terms). The restructure pass is bottom-up, so an underflowing
// internal chain collapses in one step.
func (s *Session) mergeable(i int32) bool {
	n := &s.tree.Nodes[i]
	total, any := 0, false
	for _, c := range n.Children {
		if c == octree.NoNode {
			continue
		}
		if !s.tree.Nodes[c].IsLeaf {
			return false
		}
		any = true
		total += len(s.members[c])
	}
	return any && total <= s.cfg.Q
}

// mergeChildren collapses node i's child leaves into i, killing the
// children (tombstones keep surviving indices valid).
func (s *Session) mergeChildren(i int32) {
	n := &s.tree.Nodes[i]
	var merged []int
	for _, c := range n.Children {
		if c == octree.NoNode {
			continue
		}
		merged = append(merged, s.members[c]...)
		s.members[c] = nil
		s.tree.Kill(c)
	}
	sort.Ints(merged)
	for _, id := range merged {
		s.leafOf[id] = i
	}
	s.members[i] = merged
	n.IsLeaf = true
	s.sites = append(s.sites, n.Key)
}

// patchStep rebuilds the interaction lists invalidated by this step's
// structural edits: every node whose own or parent's octant overlaps the
// 3×3×3 colleague block of an edit site (the conservative locality bound of
// morton.BlockOverlaps) is repatched; all other nodes keep their lists.
//
//fmm:hotpath
func (s *Session) patchStep(info *Info) {
	if len(s.sites) == 0 {
		return
	}
	sites := dedupKeys(s.sites)
	if len(sites) > s.cfg.maxPatchSites {
		s.tree.BuildLists(nil) //fmm:coldcall full-rebuild fallback; taken only when the dirty set exceeds the patch budget
		info.FullListRebuild = true
		return
	}
	t := s.tree
	//fmm:allow hotalloc both closures are boxed once per step, not per node
	near := func(k morton.Key) bool {
		for _, f := range sites {
			if morton.BlockOverlaps(f, k) {
				return true
			}
		}
		return false
	}
	//fmm:allow hotalloc boxed once per step, not per node
	t.PatchLists(func(i int32) bool { //fmm:coldcall delta re-plan repatches dirty nodes; allocation scales with the dirty set, not the tree
		n := &t.Nodes[i]
		d := near(n.Key) || (n.Parent != octree.NoNode && near(t.Nodes[n.Parent].Key))
		if d {
			info.PatchedNodes++
		}
		return d
	})
}

// dedupKeys sorts and deduplicates patch-site keys in place.
func dedupKeys(keys []morton.Key) []morton.Key {
	morton.SortKeys(keys)
	return morton.Dedup(keys)
}

// repack rewrites the tree's point array and permutation from the leaf
// memberships: points are contiguous per leaf in node-index order, and
// Perm maps each slot to the point's rank among live IDs — the order Apply
// takes densities in.
func (s *Session) repack() {
	t := s.tree
	if cap(s.rank) < len(s.pos) {
		s.rank = make([]int, len(s.pos))
	}
	rank := s.rank[:len(s.pos)]
	r := 0
	for id, ok := range s.alive {
		if ok {
			rank[id] = r
			r++
		}
	}
	pts := s.ptsBuf[:0]
	perm := s.permBuf[:0]
	for i := range t.Nodes {
		n := &t.Nodes[i]
		if n.Dead || !n.IsLeaf {
			n.PtLo, n.PtHi = 0, 0
			continue
		}
		n.PtLo = int32(len(pts))
		for _, id := range s.members[i] {
			pts = append(pts, s.pos[id])
			perm = append(perm, rank[id])
		}
		n.PtHi = int32(len(pts))
	}
	s.ptsBuf, s.permBuf = pts, perm
	t.Points, t.Perm = pts, perm
}

// Apply evaluates the potentials of the current point set for one density
// vector (ascending live-ID order, SrcDim components per point), returning
// potentials in the same order.
func (s *Session) Apply(densities []float64) ([]float64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := ikifmm.CheckDensities(densities, s.live, s.cfg.Spec.Ops.Kern.SrcDim()); err != nil {
		return nil, fmt.Errorf("session: %w", err)
	}
	s.eng.Reset()
	s.eng.SetPointDensities(densities)
	if _, err := s.eng.Run(nil, nil); err != nil {
		return nil, fmt.Errorf("session: %w", err)
	}
	s.stats.Evals++
	return s.eng.PointPotentials(), nil
}

// MemoryBytes estimates the session's resident size (service cache and
// metrics accounting).
func (s *Session) MemoryBytes() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	points := int64(len(s.pos)) * (24 + 8 + 1 + 4)
	return ikifmm.ResidentBytes(s.tree, s.cfg.Spec.Ops, s.layout) + points
}
