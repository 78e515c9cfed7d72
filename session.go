package kifmm

import (
	"fmt"

	"kifmm/internal/session"
)

// Session is a stateful incremental evaluation for moving-points workloads:
// it owns one plan's tree, lists, layout, and engine and advances them in
// place across Steps instead of re-planning from scratch, falling back to a
// transparent full re-plan only when a delta's churn defeats locality (see
// internal/session, which declares the type and its methods: Step, Apply,
// NumPoints, IDs, Stats, SetProfile, MemoryBytes). Safe for concurrent use;
// Step and Apply serialize on an internal lock.
type Session = session.Session

// The values a Session exchanges with its caller: Delta is one Step's point
// changes (moves of live IDs as PointMove, additions — assigned fresh IDs,
// reported in StepInfo.AddedIDs — and removals), StepInfo what the Step did,
// SessionStats the cumulative counters.
type (
	PointMove    = session.PointMove
	Delta        = session.Delta
	StepInfo     = session.Info
	SessionStats = session.Stats
)

// NewSession builds a session over the initial point set (IDs
// 0..len(points)-1). Sessions require a single-engine configuration: Shards
// is rejected.
func (f *FMM) NewSession(points []Point) (*Session, error) {
	if f.opt.Shards > 0 {
		return nil, fmt.Errorf("kifmm: sessions do not support sharded plans")
	}
	if err := f.checkPoints(points); err != nil {
		return nil, err
	}
	s, err := session.New(points, session.Config{Spec: f.spec, Q: f.opt.PointsPerBox, MaxDepth: f.opt.MaxDepth})
	if err != nil {
		return nil, fmt.Errorf("kifmm: %w", err)
	}
	return s, nil
}
