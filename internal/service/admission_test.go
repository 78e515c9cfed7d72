package service

import (
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"kifmm/internal/goleak"
)

// The admission tests drive Server.serve directly: Workers slots run
// requests, Workers + QueueDepth bound the admitted ones, and Shutdown
// waits out every admitted request.

// metricOf reads one /metrics series of s.
func metricOf(t *testing.T, s *Server, name string) string {
	t.Helper()
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	for _, line := range strings.Split(rec.Body.String(), "\n") {
		if v, ok := strings.CutPrefix(line, name+" "); ok {
			return v
		}
	}
	t.Fatalf("metrics lack %s", name)
	return ""
}

// waitAdmitted waits until n requests hold admission tokens.
func waitAdmitted(t *testing.T, s *Server, n int) {
	t.Helper()
	for t0 := time.Now(); len(s.admitted) != n; time.Sleep(time.Millisecond) {
		if time.Since(t0) > 5*time.Second {
			t.Fatalf("%d requests admitted, want %d", len(s.admitted), n)
		}
	}
}

func serveRequest() *http.Request { return httptest.NewRequest(http.MethodPost, "/", nil) }

// TestPoolRunsTasks: every admitted request runs once and is answered 200.
func TestPoolRunsTasks(t *testing.T) {
	defer goleak.Check(t)()
	s := New(Config{Workers: 2, QueueDepth: 4})
	defer s.Shutdown(context.Background())
	var n atomic.Int64
	recs := make([]*httptest.ResponseRecorder, 4)
	var wg sync.WaitGroup
	for i := range recs {
		recs[i] = httptest.NewRecorder()
		wg.Add(1)
		go func() {
			defer wg.Done()
			s.serve(recs[i], serveRequest(), time.Minute, func(context.Context) (any, error) {
				n.Add(1)
				return "ok", nil
			})
		}()
	}
	wg.Wait()
	for i, rec := range recs {
		if rec.Code != http.StatusOK {
			t.Fatalf("request %d answered %d %s", i, rec.Code, rec.Body)
		}
	}
	if n.Load() != 4 {
		t.Fatalf("ran %d requests, want 4", n.Load())
	}
	if got := metricOf(t, s, "fmmserve_tasks_completed_total"); got != "4" {
		t.Fatalf("fmmserve_tasks_completed_total %s, want 4", got)
	}
}

// TestPoolQueueFullRejects: with the one worker busy and the one queue slot
// taken, the next request is answered 429 with Retry-After at once, and
// the gauges count one running, one queued and one rejected request.
func TestPoolQueueFullRejects(t *testing.T) {
	defer goleak.Check(t)()
	s := New(Config{Workers: 1, QueueDepth: 1})
	defer s.Shutdown(context.Background())
	started, release := make(chan struct{}), make(chan struct{})
	held, queued := httptest.NewRecorder(), httptest.NewRecorder()
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		s.serve(held, serveRequest(), time.Minute, func(context.Context) (any, error) {
			close(started)
			<-release
			return "ok", nil
		})
	}()
	<-started // worker busy; queue empty
	go func() {
		defer wg.Done()
		s.serve(queued, serveRequest(), time.Minute, func(context.Context) (any, error) { return "ok", nil })
	}()
	waitAdmitted(t, s, 2)

	full := httptest.NewRecorder()
	s.serve(full, serveRequest(), time.Second, func(context.Context) (any, error) {
		t.Error("a request over capacity ran")
		return nil, nil
	})
	if full.Code != http.StatusTooManyRequests || full.Header().Get("Retry-After") != retryAfter {
		t.Fatalf("request over capacity answered %d (Retry-After %q) %s",
			full.Code, full.Header().Get("Retry-After"), full.Body)
	}
	for name, want := range map[string]string{
		"fmmserve_tasks_rejected_total": "1",
		"fmmserve_queue_depth":          "1",
		"fmmserve_workers_busy":         "1",
	} {
		if got := metricOf(t, s, name); got != want {
			t.Fatalf("%s %s, want %s", name, got, want)
		}
	}
	close(release)
	wg.Wait()
	if held.Code != http.StatusOK || queued.Code != http.StatusOK {
		t.Fatalf("admitted requests answered %d and %d", held.Code, queued.Code)
	}
}

// TestPoolCloseDrainsAdmitted: Shutdown returns only once every admitted
// request, running or queued, has run and been answered; after it, requests
// are answered 503, and a second Shutdown returns at once.
func TestPoolCloseDrainsAdmitted(t *testing.T) {
	defer goleak.Check(t)()
	const requests = 10
	s := New(Config{Workers: 2, QueueDepth: 16})
	release := make(chan struct{})
	var n atomic.Int64
	recs := make([]*httptest.ResponseRecorder, requests)
	var wg sync.WaitGroup
	for i := range recs {
		recs[i] = httptest.NewRecorder()
		wg.Add(1)
		go func() {
			defer wg.Done()
			s.serve(recs[i], serveRequest(), time.Minute, func(context.Context) (any, error) {
				<-release
				time.Sleep(5 * time.Millisecond)
				n.Add(1)
				return "ok", nil
			})
		}()
	}
	waitAdmitted(t, s, requests)

	drained := make(chan error, 1)
	go func() { drained <- s.Shutdown(context.Background()) }()
	select {
	case err := <-drained:
		t.Fatalf("Shutdown returned (%v) with %d admitted requests unanswered", err, requests)
	case <-time.After(20 * time.Millisecond):
	}
	close(release)
	if err := <-drained; err != nil {
		t.Fatalf("drain failed: %v", err)
	}
	if n.Load() != requests {
		t.Fatalf("drain incomplete: %d/%d", n.Load(), requests)
	}
	wg.Wait()
	for i, rec := range recs {
		if rec.Code != http.StatusOK {
			t.Fatalf("request %d answered %d %s", i, rec.Code, rec.Body)
		}
	}

	late := httptest.NewRecorder()
	s.serve(late, serveRequest(), time.Minute, func(context.Context) (any, error) {
		t.Error("a request after the drain ran")
		return nil, nil
	})
	if late.Code != http.StatusServiceUnavailable {
		t.Fatalf("request after the drain answered %d %s", late.Code, late.Body)
	}
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatalf("second Shutdown: %v", err)
	}
}
