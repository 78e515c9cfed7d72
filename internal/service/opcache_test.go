package service

import (
	"context"
	"net/http"
	"net/http/httptest"
	"testing"
)

// TestPlanReusesSharedOperators: every solver takes its translation
// operators from the process-wide cache, so a plan-cache miss for a seen
// (kernel, order, tolerance) builds none — zero new operator-cache misses on
// /metrics — while a Yukawa plan with a screening parameter never seen
// before adds exactly one.
func TestPlanReusesSharedOperators(t *testing.T) {
	s := New(Config{Workers: 2, QueueDepth: 8})
	defer s.Shutdown(context.Background())
	ts := httptest.NewServer(s)
	defer ts.Close()

	plan := func(opts SolverOptions, seed int64) PlanResponse {
		t.Helper()
		pts, _ := testPoints(300, seed)
		var resp PlanResponse
		if code, raw := postJSON(t, ts.Client(), ts.URL+"/v1/plan",
			PlanRequest{Points: pts, Options: opts}, &resp); code != http.StatusOK {
			t.Fatalf("plan: %d %s", code, raw)
		}
		return resp
	}
	opts := SolverOptions{Kernel: "laplace", Order: 5, PointsPerBox: 40, Workers: 2}
	planA := plan(opts, 21)
	hits0, misses0 := cacheCounters(t, ts.Client(), ts.URL, "operator")

	planB := plan(opts, 22)
	if planB.Cached || planB.PlanID == planA.PlanID {
		t.Fatalf("plan B should be a distinct plan-cache miss: %+v vs %+v", planB, planA)
	}
	hits1, misses1 := cacheCounters(t, ts.Client(), ts.URL, "operator")
	if misses1 != misses0 || hits1 != hits0+1 {
		t.Fatalf("plan B: %d operator-cache misses and %d hits, want 0 and 1", misses1-misses0, hits1-hits0)
	}

	// The miss count only grows, so it names a screening parameter no
	// earlier plan of this process used.
	yopts := opts
	yopts.Kernel, yopts.YukawaLambda = "yukawa", 5+float64(misses1)/64
	plan(yopts, 23)
	if _, misses2 := cacheCounters(t, ts.Client(), ts.URL, "operator"); misses2 != misses1+1 {
		t.Fatalf("a new Yukawa screening parameter made %d operator-cache misses, want 1", misses2-misses1)
	}
	if m := scrapeMetrics(t, ts.Client(), ts.URL); m["fmmserve_operator_cache_entries"] < 1 {
		t.Fatalf("fmmserve_operator_cache_entries %d, want at least 1", m["fmmserve_operator_cache_entries"])
	}
}
