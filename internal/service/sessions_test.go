package service

import (
	"context"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"kifmm"
	"kifmm/internal/goleak"
)

func TestRequestBodyLimit413(t *testing.T) {
	s := New(Config{Workers: 1, MaxBodyBytes: 2048})
	defer s.Shutdown(context.Background())
	ts := httptest.NewServer(s)
	defer ts.Close()

	big := strings.NewReader(`{"points":[` + strings.Repeat(`[0.1,0.2,0.3],`, 500) + `[0.1,0.2,0.3]]}`)
	r, err := ts.Client().Post(ts.URL+"/v1/plan", "application/json", big)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Body.Close()
	if r.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized body: got %d, want 413", r.StatusCode)
	}
	// A merely malformed small body stays a 400.
	r2, err := ts.Client().Post(ts.URL+"/v1/plan", "application/json", strings.NewReader("{nope"))
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Body.Close()
	if r2.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed body: got %d, want 400", r2.StatusCode)
	}
}

func TestSessionLifecycle(t *testing.T) {
	s := New(Config{Workers: 2, QueueDepth: 8})
	defer s.Shutdown(context.Background())
	ts := httptest.NewServer(s)
	defer ts.Close()

	pts, den := testPoints(400, 5)
	var sess SessionResponse
	code, raw := postJSON(t, ts.Client(), ts.URL+"/v1/session",
		SessionRequest{Points: pts, Options: fastOpts()}, &sess)
	if code != http.StatusOK {
		t.Fatalf("create: %d %s", code, raw)
	}
	if sess.SessionID == "" || sess.NumPoints != 400 || sess.MemoryBytes <= 0 {
		t.Fatalf("session response = %+v", sess)
	}

	// Step with a small delta + densities: potentials for the stepped set.
	var step SessionStepResponse
	code, raw = postJSON(t, ts.Client(), ts.URL+"/v1/session/"+sess.SessionID+"/step",
		SessionStepRequest{
			Move:      []WireMove{{ID: 0, To: [3]float64{0.5, 0.5, 0.5}}},
			Add:       [][3]float64{{0.25, 0.25, 0.25}},
			Remove:    []int{1},
			Densities: append(append([]float64(nil), den[:399]...), 1.0),
		}, &step)
	if code != http.StatusOK {
		t.Fatalf("step: %d %s", code, raw)
	}
	if step.Info.Added != 1 || step.Info.Removed != 1 || step.NumPoints != 400 {
		t.Fatalf("step response = %+v", step)
	}
	if len(step.Potentials) != 400 {
		t.Fatalf("got %d potentials", len(step.Potentials))
	}
	for i, p := range step.Potentials {
		if math.IsNaN(p) || math.IsInf(p, 0) {
			t.Fatalf("potential %d = %v", i, p)
		}
	}

	// Bad deltas are 400s and leave the session usable.
	code, _ = postJSON(t, ts.Client(), ts.URL+"/v1/session/"+sess.SessionID+"/step",
		SessionStepRequest{Remove: []int{99999}}, nil)
	if code != http.StatusBadRequest {
		t.Fatalf("bad delta: got %d, want 400", code)
	}
	code, _ = postJSON(t, ts.Client(), ts.URL+"/v1/session/"+sess.SessionID+"/step",
		SessionStepRequest{}, &step)
	if code != http.StatusOK {
		t.Fatalf("no-op step after failed delta: %d", code)
	}

	// Metrics reflect the session.
	mr, err := ts.Client().Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	raw2, _ := io.ReadAll(mr.Body)
	mr.Body.Close()
	metrics := string(raw2)
	for _, want := range []string{
		"fmmserve_sessions_active 1",
		"fmmserve_sessions_created_total 1",
		"fmmserve_session_steps_total 2",
	} {
		if !strings.Contains(metrics, want) {
			t.Fatalf("metrics missing %q:\n%s", want, metrics)
		}
	}

	// Delete → 204, later steps 404.
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/session/"+sess.SessionID, nil)
	dr, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	dr.Body.Close()
	if dr.StatusCode != http.StatusNoContent {
		t.Fatalf("delete: %d", dr.StatusCode)
	}
	code, _ = postJSON(t, ts.Client(), ts.URL+"/v1/session/"+sess.SessionID+"/step",
		SessionStepRequest{}, nil)
	if code != http.StatusNotFound {
		t.Fatalf("step after delete: got %d, want 404", code)
	}
	dr2, _ := ts.Client().Do(req)
	dr2.Body.Close()
	if dr2.StatusCode != http.StatusNotFound {
		t.Fatalf("double delete: got %d, want 404", dr2.StatusCode)
	}
}

func TestSessionCapacity429(t *testing.T) {
	s := New(Config{Workers: 1, MaxSessions: 2})
	defer s.Shutdown(context.Background())
	ts := httptest.NewServer(s)
	defer ts.Close()

	var first SessionResponse
	for i := 0; i < 2; i++ {
		pts, _ := testPoints(60, int64(10+i))
		var sr SessionResponse
		code, raw := postJSON(t, ts.Client(), ts.URL+"/v1/session",
			SessionRequest{Points: pts, Options: fastOpts()}, &sr)
		if code != http.StatusOK {
			t.Fatalf("create %d: %d %s", i, code, raw)
		}
		if i == 0 {
			first = sr
		}
	}
	pts, _ := testPoints(60, 20)
	code, raw := postJSON(t, ts.Client(), ts.URL+"/v1/session",
		SessionRequest{Points: pts, Options: fastOpts()}, nil)
	if code != http.StatusTooManyRequests {
		t.Fatalf("over capacity: got %d %s, want 429", code, raw)
	}
	// Deleting one frees a slot.
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/session/"+first.SessionID, nil)
	dr, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	dr.Body.Close()
	code, raw = postJSON(t, ts.Client(), ts.URL+"/v1/session",
		SessionRequest{Points: pts, Options: fastOpts()}, nil)
	if code != http.StatusOK {
		t.Fatalf("create after delete: %d %s", code, raw)
	}
}

func TestSessionTTLExpiry(t *testing.T) {
	// The janitor ticker and the expired session's engine state must both
	// be gone once the server shuts down.
	defer goleak.Check(t)()
	s := New(Config{Workers: 1, SessionTTL: 50 * time.Millisecond})
	defer s.Shutdown(context.Background())
	ts := httptest.NewServer(s)
	defer ts.Close()

	pts, _ := testPoints(60, 31)
	var sr SessionResponse
	code, raw := postJSON(t, ts.Client(), ts.URL+"/v1/session",
		SessionRequest{Points: pts, Options: fastOpts()}, &sr)
	if code != http.StatusOK {
		t.Fatalf("create: %d %s", code, raw)
	}
	// Drive the sweep directly instead of waiting for the janitor tick
	// (whose period is clamped to ≥ 1s).
	time.Sleep(60 * time.Millisecond)
	s.sessions.sweep(time.Now())
	code, _ = postJSON(t, ts.Client(), ts.URL+"/v1/session/"+sr.SessionID+"/step",
		SessionStepRequest{}, nil)
	if code != http.StatusNotFound {
		t.Fatalf("step after TTL expiry: got %d, want 404", code)
	}
	if st := s.sessions.stats(); st.Expired != 1 || st.Active != 0 {
		t.Fatalf("registry stats = %+v", st)
	}
}

func TestSessionRejectsUnsupportedOptions(t *testing.T) {
	s := New(Config{Workers: 1})
	defer s.Shutdown(context.Background())
	ts := httptest.NewServer(s)
	defer ts.Close()

	pts, _ := testPoints(60, 41)
	code, raw := postJSON(t, ts.Client(), ts.URL+"/v1/session",
		SessionRequest{Points: pts, Options: SolverOptions{Kernel: "laplace", Targets: [][3]float64{{0.5, 0.5, 0.5}}}}, nil)
	if code != http.StatusBadRequest {
		t.Fatalf("targets: got %d %s, want 400", code, raw)
	}
	code, _ = postJSON(t, ts.Client(), ts.URL+"/v1/session", SessionRequest{Options: fastOpts()}, nil)
	if code != http.StatusBadRequest {
		t.Fatalf("empty points: got %d, want 400", code)
	}
}

// TestSessionLeavesPlanCache: a session plans its own points, so creating
// one — sharded too — and stepping it neither reads nor fills the plan
// cache, and builds no cached plan.
func TestSessionLeavesPlanCache(t *testing.T) {
	s := New(Config{Workers: 1})
	defer s.Shutdown(context.Background())
	ts := httptest.NewServer(s)
	defer ts.Close()

	before := s.cache.Stats()
	pts, den := testPoints(300, 61)
	sharded := fastOpts()
	sharded.Shards = 2
	for _, opts := range []SolverOptions{fastOpts(), sharded} {
		var sr SessionResponse
		if code, raw := postJSON(t, ts.Client(), ts.URL+"/v1/session",
			SessionRequest{Points: pts, Options: opts}, &sr); code != http.StatusOK {
			t.Fatalf("create (shards %d): %d %s", opts.Shards, code, raw)
		}
		var step SessionStepResponse
		if code, raw := postJSON(t, ts.Client(), ts.URL+"/v1/session/"+sr.SessionID+"/step",
			SessionStepRequest{Move: []WireMove{{ID: 3, To: [3]float64{0.5, 0.5, 0.5}}}, Densities: den}, &step); code != http.StatusOK {
			t.Fatalf("step (shards %d): %d %s", opts.Shards, code, raw)
		}
		if len(step.Potentials) != len(pts) {
			t.Fatalf("step (shards %d): %d potentials", opts.Shards, len(step.Potentials))
		}
	}
	after := s.cache.Stats()
	if after.Plans != before.Plans || after.Hits != before.Hits || after.Misses != before.Misses {
		t.Fatalf("sessions touched the plan cache: %+v, then %+v", before, after)
	}
	r, err := ts.Client().Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(r.Body)
	r.Body.Close()
	if !strings.Contains(string(raw), "fmmserve_plans_built_total 0\n") {
		t.Fatalf("sessions built cached plans:\n%s", raw)
	}
}

// TestEvaluateWithTargets round-trips the asymmetric-evaluation wire option.
func TestEvaluateWithTargets(t *testing.T) {
	s := New(Config{Workers: 2})
	defer s.Shutdown(context.Background())
	ts := httptest.NewServer(s)
	defer ts.Close()

	srcs, den := testPoints(300, 51)
	trgs, _ := testPoints(80, 52)
	opt := fastOpts()
	opt.Targets = trgs
	var er EvaluateResponse
	code, raw := postJSON(t, ts.Client(), ts.URL+"/v1/evaluate",
		EvaluateRequest{Points: srcs, Options: opt, Densities: den}, &er)
	if code != http.StatusOK {
		t.Fatalf("evaluate: %d %s", code, raw)
	}
	if len(er.Potentials) != 80 {
		t.Fatalf("got %d potentials, want 80 (one per target)", len(er.Potentials))
	}
	// Target identity must be part of the plan key.
	opt2 := fastOpts()
	opt2.Targets = trgs[:79]
	if PlanKey(srcs, opt) == PlanKey(srcs, opt2) {
		t.Fatal("target change did not change the plan key")
	}
}

// TestSessionReportsPhases: a session step with densities shows up under the
// engine phases and the scheduler counters of /metrics, like a plan's Apply.
func TestSessionReportsPhases(t *testing.T) {
	s := New(Config{Workers: 1, QueueDepth: 4})
	defer s.Shutdown(context.Background())
	ts := httptest.NewServer(s)
	defer ts.Close()

	pts, den := testPoints(600, 9)
	opts := fastOpts()
	opts.Workers = 2
	var sess SessionResponse
	if code, raw := postJSON(t, ts.Client(), ts.URL+"/v1/session",
		SessionRequest{Points: pts, Options: opts}, &sess); code != http.StatusOK {
		t.Fatalf("create: %d %s", code, raw)
	}
	if code, raw := postJSON(t, ts.Client(), ts.URL+"/v1/session/"+sess.SessionID+"/step",
		SessionStepRequest{Densities: den}, nil); code != http.StatusOK {
		t.Fatalf("step: %d %s", code, raw)
	}
	r, err := ts.Client().Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(r.Body)
	r.Body.Close()
	for _, want := range []string{
		`kifmm_phase_seconds_total{phase="U-list"}`,
		`kifmm_phase_seconds_total{phase="V-list"}`,
		`kifmm_phase_flops_total{phase="U-list"}`,
		`kifmm_phase_flops_total{phase="V-list"}`,
		"kifmm_sched_graphs_total 1",
	} {
		if !strings.Contains(string(raw), want) {
			t.Fatalf("metrics missing %q after a session step:\n%s", want, raw)
		}
	}
}

// TestStepCancelledLeavesSession: a step whose timeout_ms fires before it
// commits is answered 504 and leaves the session as it was — the next step,
// which moves nothing, evaluates like a fresh plan of the original points,
// bit for bit.
func TestStepCancelledLeavesSession(t *testing.T) {
	defer goleak.Check(t)()
	s := New(Config{Workers: 1, QueueDepth: 4})
	defer s.Shutdown(context.Background())
	ts := httptest.NewServer(s)
	defer ts.Close()

	pts, den := testPoints(20000, 11)
	opts := SolverOptions{Kernel: "laplace", Order: 4, PointsPerBox: 40, Workers: 1}
	var sess SessionResponse
	if code, raw := postJSON(t, ts.Client(), ts.URL+"/v1/session", SessionRequest{Points: pts, Options: opts}, &sess); code != http.StatusOK {
		t.Fatalf("create: %d %s", code, raw)
	}
	stepURL := ts.URL + "/v1/session/" + sess.SessionID + "/step"
	// Re-planning 20 000 points takes far longer than a millisecond.
	code, raw := postJSON(t, ts.Client(), stepURL, SessionStepRequest{
		Move:      []WireMove{{ID: 0, To: [3]float64{0.5, 0.5, 0.5}}},
		Remove:    []int{1},
		TimeoutMS: 1,
	}, nil)
	if code != http.StatusGatewayTimeout || !strings.Contains(raw, "deadline expired") {
		t.Fatalf("step past its deadline: %d %s", code, raw)
	}
	t.Logf("cancelled step: %s", strings.TrimSpace(raw))

	var step SessionStepResponse
	if code, raw := postJSON(t, ts.Client(), stepURL, SessionStepRequest{Densities: den}, &step); code != http.StatusOK {
		t.Fatalf("step: %d %s", code, raw)
	}
	solver, err := kifmm.New(opts.ToOptions())
	if err != nil {
		t.Fatal(err)
	}
	plan, err := solver.Plan(ToPoints(pts))
	if err != nil {
		t.Fatal(err)
	}
	want, err := plan.Apply(den)
	if err != nil {
		t.Fatal(err)
	}
	if step.NumPoints != len(pts) || len(step.Potentials) != len(want) {
		t.Fatalf("after the cancelled step: %d points, %d potentials", step.NumPoints, len(step.Potentials))
	}
	for i := range want {
		if step.Potentials[i] != want[i] {
			t.Fatalf("potential %d is %v, want %v: the cancelled step committed", i, step.Potentials[i], want[i])
		}
	}
}
