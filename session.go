package kifmm

import (
	"context"
	"fmt"
	"sync"

	"kifmm/internal/diag"
	"kifmm/internal/geom"
)

// Session is a moving-points evaluation (time-stepped N-body and
// boundary-integral simulations): a point set addressed by stable IDs that
// changes by deltas between evaluations. A Step re-plans: it builds the next
// Plan over the live points in ascending-ID order with FMM.Plan, so a
// session's potentials are bit-identical to a fresh Plan.Apply of the same
// points. Translation operators and V-list spectra come from the
// process-wide caches, so a step pays for the tree, the lists and the layout
// only. Safe for concurrent use; Step and Apply serialize on an internal
// lock.
type Session struct {
	f  *FMM
	mu sync.Mutex
	// pos and alive are indexed by point ID; IDs are never reused.
	pos   []Point
	alive []bool
	// plan evaluates the live points in ascending-ID order.
	plan *Plan
	prof *diag.Profile

	stats SessionStats
}

// PointMove relocates one live point.
type PointMove struct {
	ID int
	To Point
}

// Delta is one Step's point changes. Moves apply to live IDs (of two moves
// of one ID the last wins, and a removal of the same ID beats both); Add
// assigns new IDs, reported in StepInfo.AddedIDs, in order; Remove retires
// live IDs.
type Delta struct {
	Move   []PointMove
	Add    []Point
	Remove []int
}

// StepInfo reports what one Step did.
type StepInfo struct {
	// Moved counts the moves of points the step did not also remove.
	Moved int
	// Added and Removed count point insertions and retirements.
	Added, Removed int
	// AddedIDs are the IDs assigned to Delta.Add points, in order.
	AddedIDs []int
}

// SessionStats are a session's cumulative counters.
type SessionStats struct {
	Steps, Evals int64
}

// NewSession plans the initial point set (IDs 0..len(points)-1) and returns
// a session over it. The session takes this solver's options as they are:
// with Shards, every step builds a sharded plan.
func (f *FMM) NewSession(points []Point) (*Session, error) {
	plan, err := f.Plan(points)
	if err != nil {
		return nil, err
	}
	alive := make([]bool, len(points))
	for i := range alive {
		alive[i] = true
	}
	return &Session{f: f, pos: append([]Point(nil), points...), alive: alive, plan: plan}, nil
}

// NumPoints returns the live point count.
func (s *Session) NumPoints() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.plan.NumPoints()
}

// IDs returns the live point IDs, ascending — the order Apply expects
// densities in and returns potentials in.
func (s *Session) IDs() []int {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]int, 0, s.plan.NumPoints())
	for id, ok := range s.alive {
		if ok {
			out = append(out, id)
		}
	}
	return out
}

// Points returns the live points in ascending-ID order: the point set the
// current plan was built over.
func (s *Session) Points() []Point {
	s.mu.Lock()
	defer s.mu.Unlock()
	return livePoints(s.pos, s.alive, s.plan.NumPoints())
}

func livePoints(pos []Point, alive []bool, live int) []Point {
	out := make([]Point, 0, live)
	for id, ok := range alive {
		if ok {
			out = append(out, pos[id])
		}
	}
	return out
}

// SetProfile attaches a diag profile that receives per-phase timings, flop
// counts and scheduler counters from subsequent Apply calls, across steps
// (nil detaches).
func (s *Session) SetProfile(prof *diag.Profile) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.prof = prof
	s.plan.SetProfile(prof)
}

// Stats returns the session's cumulative counters.
func (s *Session) Stats() SessionStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

// Step validates the whole delta, then plans the points it leaves. A delta
// that moves or removes a dead or unknown ID, places a point outside the
// unit cube, removes one ID twice or would leave the session empty is
// refused, as is one whose plan cannot be built (a sharded solver refuses a
// point set with fewer leaves than shards); a refused step leaves the
// session as it was. So does a step whose ctx is done before it commits: the
// plan build stops between its stages, and a plan built by then is
// discarded.
func (s *Session) Step(ctx context.Context, d Delta) (StepInfo, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	cube := geom.UnitCube()
	for k, mv := range d.Move {
		if mv.ID < 0 || mv.ID >= len(s.alive) || !s.alive[mv.ID] {
			return StepInfo{}, fmt.Errorf("kifmm: move %d targets dead or unknown point %d", k, mv.ID)
		}
		if !cube.Contains(mv.To) {
			return StepInfo{}, fmt.Errorf("kifmm: move %d places point %d outside the unit cube", k, mv.ID)
		}
	}
	if err := checkInCube("added point", d.Add); err != nil {
		return StepInfo{}, err
	}
	alive := make([]bool, len(s.alive), len(s.alive)+len(d.Add))
	copy(alive, s.alive)
	for k, id := range d.Remove {
		if id < 0 || id >= len(s.alive) || !s.alive[id] {
			return StepInfo{}, fmt.Errorf("kifmm: remove %d targets dead or unknown point %d", k, id)
		}
		if !alive[id] {
			return StepInfo{}, fmt.Errorf("kifmm: point %d removed twice in one delta", id)
		}
		alive[id] = false
	}
	live := s.plan.NumPoints() + len(d.Add) - len(d.Remove)
	if live == 0 {
		return StepInfo{}, fmt.Errorf("kifmm: delta would leave the session empty")
	}

	info := StepInfo{Added: len(d.Add), Removed: len(d.Remove), AddedIDs: make([]int, len(d.Add))}
	pos := make([]Point, len(s.pos), len(s.pos)+len(d.Add))
	copy(pos, s.pos)
	for _, mv := range d.Move {
		pos[mv.ID] = mv.To
		if alive[mv.ID] {
			info.Moved++
		}
	}
	for k, p := range d.Add {
		info.AddedIDs[k] = len(pos)
		pos = append(pos, p)
		alive = append(alive, true)
	}
	plan, err := s.f.PlanAt(ctx, nil, livePoints(pos, alive, live))
	if err == nil {
		err = cancelled(ctx)
	}
	if err != nil {
		return StepInfo{}, err
	}
	plan.SetProfile(s.prof)
	s.pos, s.alive, s.plan = pos, alive, plan
	s.stats.Steps++
	return info, nil
}

// Apply evaluates the potentials of the live points for one density vector
// (ascending-ID order, DensityDim components per point), returning
// potentials in the same order. A done ctx stops it as it does
// Plan.ApplyContext.
func (s *Session) Apply(ctx context.Context, densities []float64) ([]float64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	out, err := s.plan.ApplyContext(ctx, densities)
	if err != nil {
		return nil, err
	}
	s.stats.Evals++
	return out, nil
}

// MemoryBytes estimates the session's resident size: the current plan plus
// the per-ID positions and liveness.
func (s *Session) MemoryBytes() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.plan.MemoryBytes() + int64(len(s.pos))*(24+1)
}
