package service

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"kifmm"
	"kifmm/internal/goleak"
)

// testPoints draws n unit-cube points with unit-normal densities.
func testPoints(n int, seed int64) ([][3]float64, []float64) {
	rng := rand.New(rand.NewSource(seed))
	pts := make([][3]float64, n)
	den := make([]float64, n)
	for i := range pts {
		pts[i] = [3]float64{rng.Float64(), rng.Float64(), rng.Float64()}
		den[i] = rng.NormFloat64()
	}
	return pts, den
}

// fastOpts keeps round-trip tests cheap (order 4, small boxes).
func fastOpts() SolverOptions {
	return SolverOptions{Kernel: "laplace", Order: 4, PointsPerBox: 40, Workers: 1}
}

func jsonBody(v any) (io.Reader, error) {
	b, err := json.Marshal(v)
	return bytes.NewReader(b), err
}

func postJSON(t *testing.T, client *http.Client, url string, req, resp any) (int, string) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	r, err := client.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer r.Body.Close()
	raw, _ := io.ReadAll(r.Body)
	if r.StatusCode == http.StatusOK && resp != nil {
		if err := json.Unmarshal(raw, resp); err != nil {
			t.Fatalf("decode %s: %v (%s)", url, err, raw)
		}
	}
	return r.StatusCode, string(raw)
}

func TestPlanEvaluateRoundTrip(t *testing.T) {
	s := New(Config{Workers: 2, QueueDepth: 8})
	defer s.Shutdown(context.Background())
	ts := httptest.NewServer(s)
	defer ts.Close()

	pts, den := testPoints(300, 1)

	var plan PlanResponse
	code, raw := postJSON(t, ts.Client(), ts.URL+"/v1/plan", PlanRequest{Points: pts, Options: fastOpts()}, &plan)
	if code != http.StatusOK {
		t.Fatalf("plan: %d %s", code, raw)
	}
	if plan.Cached || plan.NumPoints != 300 || plan.DensityDim != 1 || plan.PlanID == "" {
		t.Fatalf("plan response = %+v", plan)
	}

	// Re-planning the same point set is a cache hit.
	var plan2 PlanResponse
	postJSON(t, ts.Client(), ts.URL+"/v1/plan", PlanRequest{Points: pts, Options: fastOpts()}, &plan2)
	if !plan2.Cached || plan2.PlanID != plan.PlanID {
		t.Fatalf("expected cache hit, got %+v", plan2)
	}

	var ev EvaluateResponse
	code, raw = postJSON(t, ts.Client(), ts.URL+"/v1/evaluate",
		EvaluateRequest{PlanID: plan.PlanID, Densities: den}, &ev)
	if code != http.StatusOK {
		t.Fatalf("evaluate: %d %s", code, raw)
	}
	if !ev.CacheHit || len(ev.Potentials) != 300 {
		t.Fatalf("evaluate response: hit=%v len=%d", ev.CacheHit, len(ev.Potentials))
	}

	// Served potentials must match the library's exact sum.
	solver, err := kifmm.New(fastOpts().ToOptions())
	if err != nil {
		t.Fatal(err)
	}
	want, err := solver.Direct(ToPoints(pts), den)
	if err != nil {
		t.Fatal(err)
	}
	var num, dn float64
	for i := range want {
		d := ev.Potentials[i] - want[i]
		num += d * d
		dn += want[i] * want[i]
	}
	if e := math.Sqrt(num / dn); e > 1e-3 {
		t.Fatalf("served potentials off by %g", e)
	}
}

func TestEvaluateInlinePointsPopulatesCache(t *testing.T) {
	s := New(Config{Workers: 2, QueueDepth: 8})
	defer s.Shutdown(context.Background())
	ts := httptest.NewServer(s)
	defer ts.Close()

	pts, den := testPoints(200, 2)
	var ev1, ev2 EvaluateResponse
	code, raw := postJSON(t, ts.Client(), ts.URL+"/v1/evaluate",
		EvaluateRequest{Points: pts, Options: fastOpts(), Densities: den}, &ev1)
	if code != http.StatusOK {
		t.Fatalf("cold evaluate: %d %s", code, raw)
	}
	if ev1.CacheHit {
		t.Fatal("first inline evaluate cannot be a hit")
	}
	postJSON(t, ts.Client(), ts.URL+"/v1/evaluate",
		EvaluateRequest{Points: pts, Options: fastOpts(), Densities: den}, &ev2)
	if !ev2.CacheHit || ev2.PlanID != ev1.PlanID {
		t.Fatalf("second inline evaluate should hit: %+v", ev2)
	}
	for i := range ev1.Potentials {
		if ev1.Potentials[i] != ev2.Potentials[i] {
			t.Fatalf("hit and miss disagree at %d", i)
		}
	}
}

func TestEvaluateErrors(t *testing.T) {
	s := New(Config{Workers: 1, QueueDepth: 4})
	defer s.Shutdown(context.Background())
	ts := httptest.NewServer(s)
	defer ts.Close()
	pts, den := testPoints(50, 3)

	cases := []struct {
		name string
		req  EvaluateRequest
		want int
	}{
		{"unknown plan id", EvaluateRequest{PlanID: "deadbeef", Densities: den}, http.StatusNotFound},
		{"no plan no points", EvaluateRequest{Densities: den}, http.StatusBadRequest},
		{"no densities", EvaluateRequest{Points: pts}, http.StatusBadRequest},
		{"density mismatch", EvaluateRequest{Points: pts, Options: fastOpts(), Densities: den[:10]}, http.StatusBadRequest},
		{"bad kernel", EvaluateRequest{Points: pts, Options: SolverOptions{Kernel: "helmholtz"}, Densities: den}, http.StatusBadRequest},
		{"out of cube", EvaluateRequest{Points: [][3]float64{{2, 2, 2}}, Options: fastOpts(), Densities: []float64{1}}, http.StatusBadRequest},
	}
	for _, c := range cases {
		if code, raw := postJSON(t, ts.Client(), ts.URL+"/v1/evaluate", c.req, nil); code != c.want {
			t.Errorf("%s: got %d (%s), want %d", c.name, code, strings.TrimSpace(raw), c.want)
		}
	}

	// Malformed JSON is a 400, not a hang.
	r, err := ts.Client().Post(ts.URL+"/v1/plan", "application/json", strings.NewReader("{nope"))
	if err != nil {
		t.Fatal(err)
	}
	r.Body.Close()
	if r.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed body: %d", r.StatusCode)
	}
}

func TestHealthzAndMetrics(t *testing.T) {
	s := New(Config{Workers: 1, QueueDepth: 4})
	defer s.Shutdown(context.Background())
	ts := httptest.NewServer(s)
	defer ts.Close()

	r, err := ts.Client().Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var h HealthResponse
	json.NewDecoder(r.Body).Decode(&h)
	r.Body.Close()
	if h.Status != "ok" || h.Draining {
		t.Fatalf("health = %+v", h)
	}

	// One evaluation so phase timings exist.
	pts, den := testPoints(100, 4)
	if code, raw := postJSON(t, ts.Client(), ts.URL+"/v1/evaluate",
		EvaluateRequest{Points: pts, Options: fastOpts(), Densities: den}, nil); code != http.StatusOK {
		t.Fatalf("evaluate: %d %s", code, raw)
	}

	r, err = ts.Client().Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(r.Body)
	r.Body.Close()
	body := string(raw)
	for _, want := range []string{
		"fmmserve_plan_cache_plans 1",
		"fmmserve_plan_cache_misses_total",
		"fmmserve_workers 1\n",
		"fmmserve_workers_busy 0\n",
		"fmmserve_queue_capacity 4\n",
		"fmmserve_queue_depth 0\n",
		"fmmserve_tasks_completed_total 1\n",
		"fmmserve_tasks_rejected_total 0\n",
		"fmmserve_tasks_expired_total 0\n",
		"fmmserve_plans_built_total 1\n",
		`kifmm_phase_seconds_total{phase="PlanBuild"}`,
		`kifmm_phase_seconds_total{phase="Apply"}`,
		`kifmm_phase_seconds_total{phase="U-list"}`,
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("metrics missing %q:\n%s", want, body)
		}
	}
}

func TestShutdownRejectsNewWork(t *testing.T) {
	s := New(Config{Workers: 1, QueueDepth: 4})
	ts := httptest.NewServer(s)
	defer ts.Close()
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	pts, den := testPoints(20, 5)
	code, _ := postJSON(t, ts.Client(), ts.URL+"/v1/evaluate",
		EvaluateRequest{Points: pts, Options: fastOpts(), Densities: den}, nil)
	if code != http.StatusServiceUnavailable {
		t.Fatalf("draining server answered %d", code)
	}
	// Shutdown with a tight deadline on an already-drained pool is instant.
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
}

// TestExpiredWhileQueued: a request whose deadline fires while it waits for
// the one worker is answered 504 "deadline expired while queued", never runs,
// and counts on fmmserve_tasks_expired_total; the queue gauges see it wait.
func TestExpiredWhileQueued(t *testing.T) {
	defer goleak.Check(t)()
	s := New(Config{Workers: 1, QueueDepth: 1})
	defer s.Shutdown(context.Background())
	metric := func(name string) string {
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
	req := func() *http.Request { return httptest.NewRequest(http.MethodPost, "/", nil) }

	started, release := make(chan struct{}), make(chan struct{})
	held, queued := httptest.NewRecorder(), httptest.NewRecorder()
	heldDone, queuedDone := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(heldDone)
		s.serve(held, req(), time.Minute, func(context.Context) (any, error) {
			close(started)
			<-release
			return "ok", nil
		})
	}()
	<-started
	go func() {
		defer close(queuedDone)
		s.serve(queued, req(), time.Second, func(context.Context) (any, error) {
			t.Error("a request that expired while queued ran")
			return nil, nil
		})
	}()
	for t0 := time.Now(); metric("fmmserve_queue_depth") != "1"; time.Sleep(time.Millisecond) {
		if time.Since(t0) > time.Second {
			t.Fatal("fmmserve_queue_depth never showed the waiting request")
		}
	}
	if busy := metric("fmmserve_workers_busy"); busy != "1" {
		t.Fatalf("fmmserve_workers_busy %s with one request running", busy)
	}
	<-queuedDone
	if queued.Code != http.StatusGatewayTimeout || !strings.Contains(queued.Body.String(), "deadline expired while queued") {
		t.Fatalf("queued request answered %d %s", queued.Code, queued.Body)
	}
	if got := metric("fmmserve_tasks_expired_total"); got != "1" {
		t.Fatalf("fmmserve_tasks_expired_total %s, want 1", got)
	}
	close(release)
	<-heldDone
	if held.Code != http.StatusOK {
		t.Fatalf("the running request answered %d %s", held.Code, held.Body)
	}
	if got := metric("fmmserve_tasks_completed_total"); got != "1" {
		t.Fatalf("fmmserve_tasks_completed_total %s, want 1", got)
	}
}
