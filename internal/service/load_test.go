package service

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"kifmm/internal/goleak"
)

// TestConcurrentLoadWarmVsCold is the acceptance load test: ≥8 concurrent
// clients against an httptest server, demonstrating that warm plan-cache
// evaluations are ≥3× faster end-to-end than cold plan-building requests on
// the same point set. Cold requests use NoCache so every one pays the full
// setup phase (operator precompute + octree + interaction lists); warm
// requests share the one cached plan. Order-6 operators make the setup
// phase expensive, as in production configurations.
func TestConcurrentLoadWarmVsCold(t *testing.T) {
	const clients = 8
	s := New(Config{Workers: 4, QueueDepth: 64, RequestTimeout: 5 * time.Minute})
	defer s.Shutdown(context.Background())
	ts := httptest.NewServer(s)
	defer ts.Close()

	pts, den := testPoints(1500, 7)
	opts := SolverOptions{Kernel: "laplace", Order: 6, PointsPerBox: 50, Workers: 1}

	run := func(req EvaluateRequest) time.Duration {
		var wg sync.WaitGroup
		t0 := time.Now()
		for c := 0; c < clients; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				var ev EvaluateResponse
				code, raw := postJSON(t, ts.Client(), ts.URL+"/v1/evaluate", req, &ev)
				if code != http.StatusOK {
					t.Errorf("evaluate: %d %s", code, raw)
					return
				}
				if len(ev.Potentials) != len(pts) {
					t.Errorf("short result: %d", len(ev.Potentials))
				}
			}()
		}
		wg.Wait()
		return time.Since(t0)
	}

	// Cold: every request plans from scratch (cache bypassed).
	cold := run(EvaluateRequest{Points: pts, Options: opts, Densities: den, NoCache: true})

	// Warm up the cache and the lazily built FFT translation spectra, then
	// time steady-state warm traffic.
	var plan PlanResponse
	if code, raw := postJSON(t, ts.Client(), ts.URL+"/v1/plan", PlanRequest{Points: pts, Options: opts}, &plan); code != http.StatusOK {
		t.Fatalf("plan: %d %s", code, raw)
	}
	warmReq := EvaluateRequest{PlanID: plan.PlanID, Densities: den}
	run(warmReq)
	warm := run(warmReq)

	t.Logf("cold %v, warm %v (%.1fx) for %d clients", cold, warm, float64(cold)/float64(warm), clients)
	if cold < 3*warm {
		t.Fatalf("warm path not ≥3x faster: cold %v vs warm %v", cold, warm)
	}
}

// TestBackpressureQueueFull verifies explicit rejection instead of
// unbounded blocking: with one worker and a one-slot queue, a burst of
// concurrent requests must see 429s carrying Retry-After, and the rejected
// requests must return promptly while admitted ones complete.
func TestBackpressureQueueFull(t *testing.T) {
	const clients = 8
	s := New(Config{Workers: 1, QueueDepth: 1, RequestTimeout: 5 * time.Minute})
	defer s.Shutdown(context.Background())
	ts := httptest.NewServer(s)
	defer ts.Close()

	pts, den := testPoints(800, 8)
	// Small boxes make one evaluation (~90 ms at one worker) outlast the
	// burst's arrival. With the operators cached process-wide, q = 50 took
	// ~15 ms, less than eight request bodies take to arrive and decode, so a
	// straggler was rightly admitted once the first evaluation finished.
	opts := SolverOptions{Kernel: "laplace", Order: 6, PointsPerBox: 10, Workers: 1}

	var (
		mu        sync.Mutex
		rejected  int
		accepted  int
		slowestRj time.Duration
	)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			t0 := time.Now()
			body, _ := jsonBody(EvaluateRequest{Points: pts, Options: opts, Densities: den, NoCache: true})
			resp, err := ts.Client().Post(ts.URL+"/v1/evaluate", "application/json", body)
			if err != nil {
				t.Errorf("post: %v", err)
				return
			}
			defer resp.Body.Close()
			el := time.Since(t0)
			mu.Lock()
			defer mu.Unlock()
			switch resp.StatusCode {
			case http.StatusOK:
				accepted++
			case http.StatusTooManyRequests:
				rejected++
				if resp.Header.Get("Retry-After") != retryAfter {
					t.Errorf("429 without Retry-After hint: %q", resp.Header.Get("Retry-After"))
				}
				if el > slowestRj {
					slowestRj = el
				}
			default:
				t.Errorf("unexpected status %d", resp.StatusCode)
			}
		}()
	}
	wg.Wait()

	if rejected == 0 {
		t.Fatalf("no 429s from %d clients against a 1-worker/1-slot server (accepted %d)", clients, accepted)
	}
	if accepted == 0 || accepted > 2 {
		t.Fatalf("admitted %d requests, capacity is 2", accepted)
	}
	// Rejection is backpressure, not blocking: a 429 must not wait for the
	// multi-hundred-ms evaluations ahead of it.
	if slowestRj > 2*time.Second {
		t.Fatalf("rejected request blocked for %v", slowestRj)
	}
}

// TestGracefulShutdownDrains verifies that Shutdown completes every
// admitted request and rejects late arrivals.
func TestGracefulShutdownDrains(t *testing.T) {
	// Drain means drained: no admission worker, queued request, or HTTP
	// plumbing goroutine may survive Shutdown.
	defer goleak.Check(t)()
	const clients = 8
	s := New(Config{Workers: 2, QueueDepth: 16, RequestTimeout: 5 * time.Minute})
	ts := httptest.NewServer(s)
	defer ts.Close()

	pts, den := testPoints(600, 9)
	opts := SolverOptions{Kernel: "laplace", Order: 4, PointsPerBox: 50, Workers: 1}

	codes := make([]int, clients)
	lengths := make([]int, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			var ev EvaluateResponse
			codes[c], _ = postJSON(t, ts.Client(), ts.URL+"/v1/evaluate",
				EvaluateRequest{Points: pts, Options: opts, Densities: den, NoCache: true}, &ev)
			lengths[c] = len(ev.Potentials)
		}(c)
	}

	// Let the burst reach the admission queue, then drain.
	time.Sleep(100 * time.Millisecond)
	ctx, cancel := context.WithTimeout(context.Background(), 4*time.Minute)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("drain failed: %v", err)
	}
	wg.Wait()

	admitted := 0
	for c := 0; c < clients; c++ {
		switch codes[c] {
		case http.StatusOK:
			admitted++
			if lengths[c] != len(pts) {
				t.Errorf("client %d: admitted but got %d potentials", c, lengths[c])
			}
		case http.StatusServiceUnavailable, http.StatusTooManyRequests:
			// Arrived after drain began or over queue capacity — rejected
			// explicitly, never abandoned.
		default:
			t.Errorf("client %d: status %d", c, codes[c])
		}
	}
	if admitted == 0 {
		t.Fatal("no request was admitted before shutdown")
	}
	// After the drain, new work is refused.
	code, _ := postJSON(t, ts.Client(), ts.URL+"/v1/evaluate",
		EvaluateRequest{Points: pts, Options: opts, Densities: den}, nil)
	if code != http.StatusServiceUnavailable {
		t.Fatalf("post-drain request answered %d", code)
	}
}

// TestDeadlineFreesWorker is cancellation under load. On a one-worker server
// an evaluate whose timeout_ms fires mid-Apply is answered 504 within one
// task's duration of its deadline, plus scheduling slack — the longest task
// measured on the same plan with ApplyTraced — and the request queued behind
// it gets the worker then, not after the rest of that Apply. Nothing it
// started outlives the test.
func TestDeadlineFreesWorker(t *testing.T) {
	defer goleak.Check(t)()
	s := New(Config{Workers: 1, QueueDepth: 4, RequestTimeout: 5 * time.Minute})
	defer s.Shutdown(context.Background())
	ts := httptest.NewServer(s)
	defer ts.Close()

	// Order 8: the far field's work per box grows with the order and the
	// request body does not, so a warm Apply clears the bound's deadline,
	// longest task and round trips with room under load.
	pts, den := testPoints(10000, 12)
	opts := SolverOptions{Kernel: "laplace", Order: 8, PointsPerBox: 50, Workers: 1}
	var plan PlanResponse
	if code, raw := postJSON(t, ts.Client(), ts.URL+"/v1/plan", PlanRequest{Points: pts, Options: opts}, &plan); code != http.StatusOK {
		t.Fatalf("plan: %d %s", code, raw)
	}
	// evaluate runs on the test's goroutine and on others: it reports with
	// t.Error, never t.Fatal.
	evaluate := func(id string, timeoutMS int) (code int, raw string, ev EvaluateResponse) {
		body, err := json.Marshal(EvaluateRequest{PlanID: id, Densities: den, TimeoutMS: timeoutMS})
		if err != nil {
			t.Error(err)
			return
		}
		r, err := ts.Client().Post(ts.URL+"/v1/evaluate", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Error(err)
			return
		}
		defer r.Body.Close()
		b, _ := io.ReadAll(r.Body)
		if r.StatusCode == http.StatusOK {
			if err := json.Unmarshal(b, &ev); err != nil {
				t.Error(err)
			}
		}
		return r.StatusCode, string(b), ev
	}
	var apply time.Duration
	for range 2 { // the second Apply is warm
		code, raw, ev := evaluate(plan.PlanID, 0)
		if code != http.StatusOK {
			t.Fatalf("evaluate: %d %s", code, raw)
		}
		apply = time.Duration(ev.ElapsedMS * float64(time.Millisecond))
	}

	// The longest task of the plan's graph, from its trace.
	entry, ok := s.cache.Get(plan.PlanID)
	if !ok {
		t.Fatal("the plan left the cache")
	}
	var longest time.Duration
	for range 2 {
		_, raw, _, err := entry.Plan.ApplyTraced(context.Background(), den)
		if err != nil {
			t.Fatal(err)
		}
		var doc struct {
			TraceEvents []struct {
				Dur float64 `json:"dur"` // µs
			} `json:"traceEvents"`
		}
		if err := json.Unmarshal(raw, &doc); err != nil {
			t.Fatal(err)
		}
		for _, ev := range doc.TraceEvents {
			longest = max(longest, time.Duration(ev.Dur*float64(time.Microsecond)))
		}
	}

	// What a request costs besides its Apply, measured on this server as it
	// runs now: the slowest of three round trips of A's very body to a plan id
	// the server does not hold, a 404 after the densities are encoded, sent
	// and decoded, without an Apply. That cost is most of A's answer time
	// past the deadline and grows with the machine's load and the race
	// detector alike; a /healthz round trip, which decodes nothing, misses it.
	// It is measured before the A/B pair and again right after it, and the
	// larger value is used: load that arrives during the pair shows in the
	// second measurement.
	roundTrip := func() (trip time.Duration) {
		for range 3 {
			t1 := time.Now()
			if code, raw, _ := evaluate("no-such-plan", 0); code != http.StatusNotFound {
				t.Fatalf("evaluate of an unknown plan: %d %s", code, raw)
			}
			trip = max(trip, time.Since(t1))
		}
		return trip
	}
	trip := roundTrip()

	// A's deadline fires a quarter of the way into its Apply; B waits behind
	// it for the one worker. The slack covers A's request round trip, three
	// times over for scheduling.
	timeout := max(time.Millisecond, apply/4)
	bound := func() time.Duration { return timeout + longest + 3*trip }
	t.Logf("warm Apply %v, longest task %v, round trip %v, deadline %v, bound %v", apply, longest, trip, timeout, bound())
	if bound() >= apply {
		t.Skipf("a warm Apply (%v) is too short to tell a stopped one from a finished one", apply)
	}
	type answer struct {
		code int
		raw  string
	}
	aDone, bDone := make(chan answer), make(chan answer)
	queued := phaseTime(t, s, phaseQueueWait)
	t0 := time.Now()
	go func() {
		code, raw, _ := evaluate(plan.PlanID, int(timeout/time.Millisecond))
		aDone <- answer{code, raw}
	}()
	waitMetric(t, ts, "fmmserve_workers_busy 1\n")
	go func() {
		code, raw, _ := evaluate(plan.PlanID, 0)
		bDone <- answer{code, raw}
	}()
	a := <-aDone
	took := time.Since(t0)
	b := <-bDone
	// A got the worker at once, so the queue-wait phase grew by B's wait.
	waited := phaseTime(t, s, phaseQueueWait) - queued
	if a.code != http.StatusGatewayTimeout || !strings.Contains(a.raw, "deadline expired after") {
		t.Fatalf("request past its deadline answered %d %s", a.code, a.raw)
	}
	if b.code != http.StatusOK {
		t.Fatalf("queued request answered %d %s", b.code, b.raw)
	}
	trip = max(trip, roundTrip())
	t.Logf("504 after %v; the queued request waited %v; round trip %v, bound %v", took, waited, trip, bound())
	if took > bound() {
		t.Errorf("504 took %v, past deadline %v + longest task %v + slack %v", took, timeout, longest, 3*trip)
	}
	if waited > bound() {
		t.Errorf("the queued request waited %v for the worker, past %v: it waited for the abandoned Apply", waited, bound())
	}
}

// phaseTime reads one phase's accumulated time off s's /metrics.
func phaseTime(t *testing.T, s *Server, phase string) time.Duration {
	t.Helper()
	sec, err := strconv.ParseFloat(metricOf(t, s, `kifmm_phase_seconds_total{phase="`+phase+`"}`), 64)
	if err != nil {
		t.Fatal(err)
	}
	return time.Duration(sec * float64(time.Second))
}

// waitMetric polls /metrics until it carries line.
func waitMetric(t *testing.T, ts *httptest.Server, line string) {
	t.Helper()
	for t0 := time.Now(); ; time.Sleep(time.Millisecond) {
		r, err := ts.Client().Get(ts.URL + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		raw, _ := io.ReadAll(r.Body)
		r.Body.Close()
		if strings.Contains(string(raw), line) {
			return
		}
		if time.Since(t0) > 10*time.Second {
			t.Fatalf("metrics never carried %q", line)
		}
	}
}
