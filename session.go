package kifmm

import (
	"fmt"
	"sync"

	"kifmm/internal/geom"
	"kifmm/internal/session"
)

// PointMove relocates one live session point.
type PointMove struct {
	ID int
	To Point
}

// Delta is one session step's point changes: moves of live IDs, additions
// (assigned fresh IDs, reported in StepInfo.AddedIDs), and removals.
type Delta struct {
	Move   []PointMove
	Add    []Point
	Remove []int
}

// StepInfo reports what one Session.Step did.
type StepInfo struct {
	// Moved counts points that stayed inside their leaf octant (coordinate
	// refresh only); Migrated counts points re-inserted elsewhere after the
	// O(1) Morton containment test said they left.
	Moved, Migrated int
	// Added and Removed count point insertions and retirements; AddedIDs
	// are the IDs assigned to Delta.Add, in order.
	Added, Removed int
	AddedIDs       []int
	// Splits and Merges count structural leaf edits; PatchedNodes counts
	// interaction lists rebuilt by local patching.
	Splits, Merges, PatchedNodes int
	// FullListRebuild marks a step that rebuilt every list on the existing
	// tree; Replanned marks a transparent full re-plan.
	FullListRebuild, Replanned bool
	// LiveNodes and DeadNodes describe the tree after the step.
	LiveNodes, DeadNodes int
}

// SessionStats are cumulative session counters.
type SessionStats struct {
	Steps, Migrated, PatchedNodes, Replans, Evals int64
}

// Session is a stateful incremental evaluation for moving-points workloads:
// it owns one plan's tree, lists, layout, and engine and advances them in
// place across Steps instead of re-planning from scratch, falling back to a
// transparent full re-plan only when a delta's churn defeats locality (see
// internal/session). Safe for concurrent use; Step and Apply serialize on
// an internal lock.
type Session struct {
	f  *FMM
	mu sync.Mutex
	s  *session.Session
}

// NewSession builds a session over the initial point set (IDs
// 0..len(points)-1). Sessions require a plain single-engine configuration:
// Shards, Balanced, and Targets are rejected.
func (f *FMM) NewSession(points []Point) (*Session, error) {
	switch {
	case f.opt.Shards > 0:
		return nil, fmt.Errorf("kifmm: sessions do not support sharded plans")
	case f.opt.Balanced:
		return nil, fmt.Errorf("kifmm: sessions do not support 2:1-balanced trees (incremental edits do not preserve the balance)")
	case len(f.opt.Targets) > 0:
		return nil, fmt.Errorf("kifmm: sessions do not support asymmetric evaluation (Targets)")
	}
	if err := f.checkPoints(points); err != nil {
		return nil, err
	}
	s, err := session.New(toGeom(points), session.Config{
		Ops:         f.ops,
		Q:           f.opt.PointsPerBox,
		MaxDepth:    f.opt.MaxDepth,
		Workers:     f.opt.Workers,
		UseFFTM2L:   !f.opt.denseM2L,
		UseDAG:      f.useDAG(),
		Float32Near: f.float32Near(),
	})
	if err != nil {
		return nil, fmt.Errorf("kifmm: %w", err)
	}
	return &Session{f: f, s: s}, nil
}

// Step applies one delta to the session's point set, updating the tree,
// interaction lists, layout, and engine state incrementally.
func (s *Session) Step(d Delta) (StepInfo, error) {
	gd := session.Delta{Remove: d.Remove}
	if len(d.Move) > 0 {
		gd.Move = make([]session.PointMove, len(d.Move))
		for i, mv := range d.Move {
			gd.Move[i] = session.PointMove{ID: mv.ID, To: geom.Point(mv.To)}
		}
	}
	if len(d.Add) > 0 {
		gd.Add = toGeom(d.Add)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	info, err := s.s.Step(gd)
	if err != nil {
		return StepInfo{}, fmt.Errorf("kifmm: %w", err)
	}
	return StepInfo{
		Moved: info.Moved, Migrated: info.Migrated,
		Added: info.Added, Removed: info.Removed, AddedIDs: info.AddedIDs,
		Splits: info.Splits, Merges: info.Merges, PatchedNodes: info.PatchedNodes,
		FullListRebuild: info.FullListRebuild, Replanned: info.Replanned,
		LiveNodes: info.LiveNodes, DeadNodes: info.DeadNodes,
	}, nil
}

// Apply evaluates the potentials of the current point set for one density
// vector in ascending live-ID order (DensityDim components per live point),
// returning potentials in the same order.
func (s *Session) Apply(densities []float64) ([]float64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	out, err := s.s.Apply(densities)
	if err != nil {
		return nil, fmt.Errorf("kifmm: %w", err)
	}
	return out, nil
}

// NumPoints returns the live point count.
func (s *Session) NumPoints() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.s.NumPoints()
}

// IDs returns the live point IDs ascending — the density/potential order of
// Apply.
func (s *Session) IDs() []int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.s.IDs()
}

// Stats returns the session's cumulative counters.
func (s *Session) Stats() SessionStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.s.CumulativeStats()
	return SessionStats{Steps: st.Steps, Migrated: st.Migrated,
		PatchedNodes: st.PatchedNodes, Replans: st.Replans, Evals: st.Evals}
}

// MemoryBytes estimates the session's resident size (cache accounting).
func (s *Session) MemoryBytes() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.s.MemoryBytes()
}
