package kifmm

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// countdownCtx is a context that turns cancelled at the n-th call to Err:
// it reaches every ctx check of a plan build or a step in turn, which a
// clock cannot do deterministically. Done stays nil, so a task graph under
// it registers nothing.
type countdownCtx struct {
	context.Context
	left atomic.Int32
}

func countdown(n int32) *countdownCtx {
	c := &countdownCtx{Context: context.Background()}
	c.left.Store(n)
	return c
}

func (c *countdownCtx) Err() error {
	if c.left.Add(-1) < 0 {
		return context.Canceled
	}
	return nil
}

// wantCancelled fails unless err is ctx's error, reached through every
// wrapper in want.
func wantCancelled(t *testing.T, what string, err, ctxErr error, want ...string) {
	t.Helper()
	if !errors.Is(err, ctxErr) {
		t.Fatalf("%s: err %v, want one wrapping %v", what, err, ctxErr)
	}
	for _, w := range want {
		if !strings.Contains(err.Error(), w) {
			t.Fatalf("%s: err %q lacks %q", what, err, w)
		}
	}
}

// TestCancelledContext is the cancellation oracle of the public API: a
// cancelled PlanAt, ApplyContext or ApplyTraced returns the context's error
// through the kifmm: and task-graph evaluation: wrappers, whether the
// context was done before the call or its deadline fires mid-Apply, and the
// plan's next Apply equals a fresh plan's, bit for bit — at Workers 1 and 2,
// for a symmetric plan and a PlanAt plan. A sharded Apply checks its context
// on entry.
func TestCancelledContext(t *testing.T) {
	pts, den := randInput(6000, 1, 81)
	trgs, _ := randInput(500, 1, 82)
	done, cancel := context.WithCancel(context.Background())
	cancel()
	for _, workers := range []int{1, 2} {
		for _, at := range [][]Point{nil, trgs} {
			name := fmt.Sprintf("workers=%d/targets=%d", workers, len(at))
			f, err := New(Options{Order: 6, PointsPerBox: 40, Workers: workers})
			if err != nil {
				t.Fatal(err)
			}
			for stage := int32(0); ; stage++ {
				p, err := f.PlanAt(countdown(stage), at, pts)
				if err == nil {
					if stage != 4 {
						t.Fatalf("%s: PlanAt checked its context %d times, want one per stage (4)", name, stage)
					}
					if p.NumTargets() != len(at) {
						t.Fatalf("%s: plan has %d targets", name, p.NumTargets())
					}
					break
				}
				wantCancelled(t, name+": PlanAt", err, context.Canceled, "kifmm: ")
			}
			p, err := f.PlanAt(context.Background(), at, pts)
			if err != nil {
				t.Fatal(err)
			}
			fresh, err := f.PlanAt(context.Background(), at, pts)
			if err != nil {
				t.Fatal(err)
			}
			want, err := fresh.Apply(den)
			if err != nil {
				t.Fatal(err)
			}

			_, err = p.ApplyContext(done, den)
			wantCancelled(t, name+": ApplyContext", err, context.Canceled, "kifmm: ", "task-graph evaluation: ")
			_, _, err = p.ApplyTraced(done, den)
			wantCancelled(t, name+": ApplyTraced", err, context.Canceled, "kifmm: ", "task-graph evaluation: ")

			// A deadline a fifth of a warm Apply away fires mid-graph.
			t0 := time.Now()
			got, err := p.Apply(den)
			if err != nil {
				t.Fatal(err)
			}
			sameBits(t, name+": Apply", got, want)
			ctx, stop := context.WithTimeout(context.Background(), time.Since(t0)/5)
			_, err = p.ApplyContext(ctx, den)
			stop()
			wantCancelled(t, name+": ApplyContext past its deadline", err, context.DeadlineExceeded, "kifmm: ")

			got, err = p.Apply(den)
			if err != nil {
				t.Fatal(err)
			}
			sameBits(t, name+": Apply after cancelled Applies", got, want)
			if got, want := p.Evaluations(), int64(2); got != want {
				t.Fatalf("%s: %d evaluations counted, want %d (cancelled Applies do not count)", name, got, want)
			}
		}
	}

	f, err := New(Options{Order: 4, PointsPerBox: 40, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	sp, err := f.Plan(pts)
	if err != nil {
		t.Fatal(err)
	}
	_, err = sp.ApplyContext(done, den)
	wantCancelled(t, "sharded ApplyContext", err, context.Canceled, "kifmm: ")
	if _, err := sp.ApplyContext(context.Background(), den); err != nil {
		t.Fatal(err)
	}
}

// TestStepCancelledLeavesSession cancels a step at each of its context
// checks in turn — the plan build's stages and the last one before commit —
// and checks that every cancelled step leaves the session's IDs, points,
// counters and potentials as they were; the step that then goes through, and
// the Apply after it, match a fresh plan of the points bit for bit.
func TestStepCancelledLeavesSession(t *testing.T) {
	f, err := New(Options{Order: 4, PointsPerBox: 20, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	pts, _ := randInput(800, 1, 83)
	s, err := f.NewSession(pts)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(84))
	den := randDensities(rng, len(pts))
	before, err := s.Apply(context.Background(), den)
	if err != nil {
		t.Fatal(err)
	}
	ids, livePts := s.IDs(), s.Points()
	d := Delta{Move: []PointMove{{ID: 3, To: Point{X: 0.5, Y: 0.5, Z: 0.5}}}, Remove: []int{5}, Add: []Point{{X: 0.25, Y: 0.75, Z: 0.5}}}
	checks := int32(0)
	for ; ; checks++ {
		_, err := s.Step(countdown(checks), d)
		if err == nil {
			break
		}
		wantCancelled(t, fmt.Sprintf("step cancelled at check %d", checks), err, context.Canceled, "kifmm: ")
		if !slices.Equal(s.IDs(), ids) || !slices.Equal(s.Points(), livePts) || s.Stats().Steps != 0 {
			t.Fatalf("check %d: a cancelled step changed the session", checks)
		}
		after, err := s.Apply(context.Background(), den)
		if err != nil {
			t.Fatal(err)
		}
		sameBits(t, fmt.Sprintf("potentials after a step cancelled at check %d", checks), after, before)
	}
	// Four stage checks in PlanAt, one before commit.
	if checks != 5 {
		t.Fatalf("step checked its context %d times, want 5", checks)
	}
	if s.Stats().Steps != 1 || s.NumPoints() != len(pts) {
		t.Fatalf("after the step: %+v, %d points", s.Stats(), s.NumPoints())
	}
	den = randDensities(rng, s.NumPoints())
	got, err := s.Apply(context.Background(), den)
	if err != nil {
		t.Fatal(err)
	}
	want, err := freshApply(f, s, den)
	if err != nil {
		t.Fatal(err)
	}
	sameBits(t, "potentials after the step that went through", got, want)
}
