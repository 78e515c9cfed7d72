package service

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"net/http"
	"sync"
	"time"

	"kifmm"
)

// liveSession is one resident moving-points session plus its idle deadline.
// Steps serialize on the session's own lock (inside kifmm.Session); the
// registry lock only guards membership and deadlines.
type liveSession struct {
	id   string
	sess *kifmm.Session

	mu       sync.Mutex
	deadline time.Time
}

func (l *liveSession) touch(ttl time.Duration, now time.Time) {
	l.mu.Lock()
	l.deadline = now.Add(ttl)
	l.mu.Unlock()
}

func (l *liveSession) expired(now time.Time) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return now.After(l.deadline)
}

// sessionStats are the registry's cumulative counters for /metrics.
type sessionStats struct {
	Active  int
	Created int64
	Expired int64
	Deleted int64
}

// sessionRegistry holds the server's live sessions: a capped map with TTL
// expiry driven by a janitor goroutine.
type sessionRegistry struct {
	mu   sync.Mutex
	byID map[string]*liveSession
	max  int
	ttl  time.Duration

	created, expired, deleted int64

	stopOnce sync.Once
	stop     chan struct{}
	done     chan struct{}
}

func newSessionRegistry(max int, ttl time.Duration) *sessionRegistry {
	r := &sessionRegistry{
		byID: make(map[string]*liveSession),
		max:  max,
		ttl:  ttl,
		stop: make(chan struct{}),
		done: make(chan struct{}),
	}
	go r.janitor()
	return r
}

// janitor sweeps expired sessions at a fraction of the TTL so an idle
// session outlives its deadline by at most ~TTL/4.
func (r *sessionRegistry) janitor() {
	defer close(r.done)
	period := r.ttl / 4
	if period < time.Second {
		period = time.Second
	}
	t := time.NewTicker(period)
	defer t.Stop()
	for {
		select {
		case <-r.stop:
			return
		case now := <-t.C:
			r.sweep(now)
		}
	}
}

func (r *sessionRegistry) sweep(now time.Time) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for id, l := range r.byID {
		if l.expired(now) {
			delete(r.byID, id)
			r.expired++
		}
	}
}

// add registers the session, enforcing the capacity cap. It reports false
// when the server is already at -max-sessions.
func (r *sessionRegistry) add(l *liveSession, now time.Time) bool {
	l.touch(r.ttl, now)
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.max > 0 && len(r.byID) >= r.max {
		return false
	}
	r.byID[l.id] = l
	r.created++
	return true
}

// get returns the session and refreshes its idle deadline.
func (r *sessionRegistry) get(id string, now time.Time) (*liveSession, bool) {
	r.mu.Lock()
	l, ok := r.byID[id]
	r.mu.Unlock()
	if !ok {
		return nil, false
	}
	l.touch(r.ttl, now)
	return l, true
}

// remove deletes the session. It reports whether the session existed.
func (r *sessionRegistry) remove(id string) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	_, ok := r.byID[id]
	if ok {
		delete(r.byID, id)
		r.deleted++
	}
	return ok
}

// close stops the janitor and drops every live session. Safe to call more
// than once (Shutdown may be retried with a fresh context).
func (r *sessionRegistry) close() {
	r.stopOnce.Do(func() { close(r.stop) })
	<-r.done
	r.mu.Lock()
	defer r.mu.Unlock()
	clear(r.byID)
}

func (r *sessionRegistry) stats() sessionStats {
	r.mu.Lock()
	defer r.mu.Unlock()
	return sessionStats{
		Active:  len(r.byID),
		Created: r.created,
		Expired: r.expired,
		Deleted: r.deleted,
	}
}

func (s *Server) handleSessionCreate(w http.ResponseWriter, r *http.Request) {
	var req SessionRequest
	if !s.decodeBody(w, r, &req) {
		return
	}
	if len(req.Points) == 0 {
		writeError(w, http.StatusBadRequest, "no points")
		return
	}
	if !s.checkOptions(w, req.Options) {
		return
	}
	// Targets are not part of a session: its points are sources and targets.
	if len(req.Options.Targets) > 0 {
		writeError(w, http.StatusBadRequest, "sessions do not support asymmetric targets")
		return
	}
	if s.sessions.stats().Active >= s.cfg.MaxSessions {
		retryLater(w, "session capacity %d reached", s.cfg.MaxSessions)
		return
	}

	// A session plans its own points; the plan cache neither serves nor
	// keeps it.
	s.serve(w, r, s.cfg.RequestTimeout, func(ctx context.Context) (any, error) {
		solver, err := kifmm.New(req.Options.ToOptions())
		if err != nil {
			return nil, fmt.Errorf("session: %w", err)
		}
		sess, err := solver.NewSession(ctx, ToPoints(req.Points))
		if err != nil {
			return nil, fmt.Errorf("session: %w", err)
		}
		l := &liveSession{id: newSessionID(), sess: sess}
		if !s.sessions.add(l, time.Now()) {
			return nil, fmt.Errorf("session %w (%d)", errAtCapacity, s.cfg.MaxSessions)
		}
		return SessionResponse{
			SessionID:    l.id,
			NumPoints:    sess.NumPoints(),
			DensityDim:   solver.DensityDim(),
			PotentialDim: solver.PotentialDim(),
			MemoryBytes:  sess.MemoryBytes(),
			TTLSeconds:   s.cfg.SessionTTL.Seconds(),
		}, nil
	})
}

func (s *Server) handleSessionStep(w http.ResponseWriter, r *http.Request) {
	var req SessionStepRequest
	if !s.decodeBody(w, r, &req) {
		return
	}
	l, ok := s.sessions.get(r.PathValue("id"), time.Now())
	if !ok {
		writeError(w, http.StatusNotFound, "unknown session %q (expired or never created)", r.PathValue("id"))
		return
	}
	delta := kifmm.Delta{Remove: req.Remove}
	if len(req.Move) > 0 {
		delta.Move = make([]kifmm.PointMove, len(req.Move))
		for i, m := range req.Move {
			delta.Move[i] = kifmm.PointMove{ID: m.ID, To: kifmm.Point{X: m.To[0], Y: m.To[1], Z: m.To[2]}}
		}
	}
	if len(req.Add) > 0 {
		delta.Add = ToPoints(req.Add)
	}
	s.serve(w, r, s.timeout(req.TimeoutMS), func(ctx context.Context) (any, error) {
		t0 := time.Now()
		stop := s.prof.Start(phaseSessionStep)
		info, err := l.sess.Step(ctx, delta)
		stop()
		if err != nil {
			return nil, fmt.Errorf("step: %w", err)
		}
		s.sessSteps.Add(1)
		var pots []float64
		if len(req.Densities) > 0 {
			applyStop := s.prof.Start(phaseApply)
			var rec kifmm.ApplyStats
			pots, rec, err = l.sess.ApplyWithStats(ctx, req.Densities)
			applyStop()
			rec.MergeInto(s.prof)
			if err != nil {
				// The step has committed; say so, whether this is a 400 or
				// the deadline's 504.
				return nil, fmt.Errorf("step applied, evaluate: %w", err)
			}
		}
		return SessionStepResponse{
			SessionID:  l.id,
			Info:       SessionStepInfo(info),
			NumPoints:  l.sess.NumPoints(),
			Potentials: pots,
			ElapsedMS:  float64(time.Since(t0)) / float64(time.Millisecond),
		}, nil
	})
}

func (s *Server) handleSessionDelete(w http.ResponseWriter, r *http.Request) {
	if !s.sessions.remove(r.PathValue("id")) {
		writeError(w, http.StatusNotFound, "unknown session %q", r.PathValue("id"))
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

// newSessionID returns a 128-bit random hex session handle.
func newSessionID() string {
	var b [16]byte
	if _, err := rand.Read(b[:]); err != nil {
		// crypto/rand failing is a broken platform; fall back to a handle
		// that is still unique per process lifetime.
		panic("fmmserve: crypto/rand unavailable: " + err.Error())
	}
	return "sess-" + hex.EncodeToString(b[:])
}
