package service

import (
	"context"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"kifmm"
)

// TestPlanPrecisionIdentity checks the serving contract of the precision
// option: plans that differ only in near-field precision are distinct
// resident PlanCache entries, "auto" shares the float64 entry it resolves
// to, and the per-precision build counters surface on /metrics.
func TestPlanPrecisionIdentity(t *testing.T) {
	s := New(Config{Workers: 2, QueueDepth: 8})
	defer s.Shutdown(context.Background())
	ts := httptest.NewServer(s)
	defer ts.Close()

	pts, den := testPoints(300, 3)

	plan := func(prec string) PlanResponse {
		opts := fastOpts()
		opts.Precision = prec
		var resp PlanResponse
		code, raw := postJSON(t, ts.Client(), ts.URL+"/v1/plan",
			PlanRequest{Points: pts, Options: opts}, &resp)
		if code != http.StatusOK {
			t.Fatalf("plan precision=%q: %d %s", prec, code, raw)
		}
		return resp
	}

	p64 := plan("float64")
	p32 := plan("float32")
	if p64.PlanID == p32.PlanID {
		t.Fatalf("float64 and float32 plans share PlanID %s", p64.PlanID)
	}
	if p64.Cached || p32.Cached {
		t.Fatalf("first builds reported cached: f64=%v f32=%v", p64.Cached, p32.Cached)
	}

	// "auto" resolves to float64 and must land on the float64 entry as a
	// cache hit, not build a third plan.
	auto := plan("auto")
	if auto.PlanID != p64.PlanID || !auto.Cached {
		t.Fatalf("auto plan: id=%s cached=%v, want id=%s cached=true",
			auto.PlanID, auto.Cached, p64.PlanID)
	}
	if empty := plan(""); empty.PlanID != p64.PlanID || !empty.Cached {
		t.Fatalf("default-precision plan did not share the float64 entry")
	}

	// The float32 plan still serves potentials within the plan's accuracy.
	var ev EvaluateResponse
	code, raw := postJSON(t, ts.Client(), ts.URL+"/v1/evaluate",
		EvaluateRequest{PlanID: p32.PlanID, Densities: den}, &ev)
	if code != http.StatusOK {
		t.Fatalf("evaluate float32 plan: %d %s", code, raw)
	}
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
		t.Fatalf("float32-served potentials off by %g", e)
	}

	// /metrics reports exactly one build per precision (the auto and ""
	// requests were cache hits).
	resp, err := ts.Client().Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw2, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	body := string(raw2)
	for _, want := range []string{
		`fmmserve_plans_built_total{precision="float64"} 1`,
		`fmmserve_plans_built_total{precision="float32"} 1`,
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("metrics missing %q:\n%s", want, body)
		}
	}
}

// TestUnknownExecPrecisionRejected: a misspelled precision, or an option
// field the server does not know — the retired path selectors "exec" and
// "dense_m2l", the retired device switch and the retired 2:1 balance option
// among them — must be a 400 naming
// the field on every endpoint that takes options, not the default served
// under a cache entry of its own; and the spellings of one choice ("" and
// "auto") must share a plan.
func TestUnknownExecPrecisionRejected(t *testing.T) {
	s := New(Config{Workers: 1})
	defer s.Shutdown(context.Background())
	ts := httptest.NewServer(s)
	defer ts.Close()

	pts, den := testPoints(120, 7)
	for _, c := range []struct {
		field string
		value any
	}{
		{"precision", "float16"},
		{"exec", "dag"},
		{"dense_m2l", true},
		{"accelerated", true},
		{"balanced", true},
		{"order", 1e9}, // above kifmm.MaxOrder: refused before any operator is built
	} {
		body := map[string]any{"points": pts, "densities": den,
			"options": map[string]any{"order": 4, c.field: c.value}}
		for _, path := range []string{"/v1/plan", "/v1/evaluate", "/v1/session"} {
			code, raw := postJSON(t, ts.Client(), ts.URL+path, body, nil)
			if code != http.StatusBadRequest || !strings.Contains(raw, c.field) {
				t.Errorf("%s with options.%s: got %d %s, want 400 naming the field", path, c.field, code, raw)
			}
		}
	}
	if st := s.cache.Stats(); st.Plans != 0 {
		t.Fatalf("rejected requests left %d plans in the cache", st.Plans)
	}

	auto, empty, f32 := fastOpts(), fastOpts(), fastOpts()
	auto.Precision, f32.Precision = "auto", "float32"
	if PlanKey(pts, auto) != PlanKey(pts, empty) {
		t.Error(`precision "auto" and "" hash to different plans`)
	}
	if PlanKey(pts, f32) == PlanKey(pts, empty) {
		t.Error("precision float32 shares the float64 plan")
	}
}
