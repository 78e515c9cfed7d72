package service

import (
	"bufio"
	"context"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
)

// scrapeMetrics returns the integer-valued lines of /metrics by name.
func scrapeMetrics(t *testing.T, client *http.Client, url string) map[string]int64 {
	t.Helper()
	resp, err := client.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out := map[string]int64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) != 2 {
			continue
		}
		if v, err := strconv.ParseInt(fields[1], 10, 64); err == nil {
			out[fields[0]] = v
		}
	}
	return out
}

// cacheCounters scrapes the hit and miss counters of one process-wide cache
// ("tf" or "operator") off /metrics.
func cacheCounters(t *testing.T, client *http.Client, url, cache string) (hits, misses int64) {
	t.Helper()
	m := scrapeMetrics(t, client, url)
	hits, okH := m["fmmserve_"+cache+"_cache_hits_total"]
	misses, okM := m["fmmserve_"+cache+"_cache_misses_total"]
	if !okH || !okM {
		t.Fatalf("%s-cache counters missing from /metrics", cache)
	}
	return hits, misses
}

// TestPlanReusesWarmedTranslationSpectra: after one plan for a (kernel,
// order) pair has resolved the V-list spectra into its shared operators'
// level table, building a second, distinct plan (different points — a
// plan-cache miss) must reuse every one of them from that table: it makes
// no translation-cache lookup at all, neither a miss nor a hit, on
// /metrics.
func TestPlanReusesWarmedTranslationSpectra(t *testing.T) {
	s := New(Config{Workers: 2, QueueDepth: 8})
	defer s.Shutdown(context.Background())
	ts := httptest.NewServer(s)
	defer ts.Close()

	opts := SolverOptions{Kernel: "laplace", Order: 5, PointsPerBox: 40, Workers: 2}
	ptsA, _ := testPoints(300, 11)
	ptsB, _ := testPoints(300, 12)

	var planA PlanResponse
	if code, raw := postJSON(t, ts.Client(), ts.URL+"/v1/plan",
		PlanRequest{Points: ptsA, Options: opts}, &planA); code != http.StatusOK {
		t.Fatalf("plan A: %d %s", code, raw)
	}
	hits0, misses0 := cacheCounters(t, ts.Client(), ts.URL, "tf")

	var planB PlanResponse
	if code, raw := postJSON(t, ts.Client(), ts.URL+"/v1/plan",
		PlanRequest{Points: ptsB, Options: opts}, &planB); code != http.StatusOK {
		t.Fatalf("plan B: %d %s", code, raw)
	}
	if planB.Cached || planB.PlanID == planA.PlanID {
		t.Fatalf("plan B should be a distinct plan-cache miss: %+v vs %+v", planB, planA)
	}
	hits1, misses1 := cacheCounters(t, ts.Client(), ts.URL, "tf")

	if misses1 != misses0 || hits1 != hits0 {
		t.Fatalf("plan B made %d translation-cache misses and %d hits; want 0 and 0, every spectrum reused from the operators",
			misses1-misses0, hits1-hits0)
	}
}
