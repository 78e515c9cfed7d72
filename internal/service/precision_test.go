package service

import (
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// TestUnknownExecPrecisionRejected: an option field the server does not know
// — the retired path selectors "exec" and "dense_m2l", the retired device
// switch, the retired 2:1 balance option and the retired near-field
// "precision" among them — must be a 400 naming the field on every endpoint
// that takes options, not the default served under a cache entry of its own;
// so must an order above kifmm.MaxOrder, a tolerance outside (0, 1) and a
// shard_comm naming a reduction sharded plans no longer run.
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
		{"precision", "float32"},
		{"exec", "dag"},
		{"dense_m2l", true},
		{"accelerated", true},
		{"balanced", true},
		{"order", 1e9},              // above kifmm.MaxOrder: refused before any operator is built
		{"tolerance", 1e300},        // over-damps every singular value: the far field would vanish
		{"tolerance", 1},            // the same at the boundary
		{"tolerance", -1e-9},        // not a damping at all
		{"shard_comm", "hypercube"}, // sharded plans run the one reduction, "simple"
	} {
		for _, path := range []string{"/v1/plan", "/v1/evaluate", "/v1/session"} {
			// Bodies are strict too: densities only where they are a field.
			body := map[string]any{"points": pts, "options": map[string]any{"order": 4, c.field: c.value}}
			if path == "/v1/evaluate" {
				body["densities"] = den
			}
			code, raw := postJSON(t, ts.Client(), ts.URL+path, body, nil)
			if code != http.StatusBadRequest || !strings.Contains(raw, c.field) {
				t.Errorf("%s with options.%s: got %d %s, want 400 naming the field", path, c.field, code, raw)
			}
		}
	}
	if st := s.cache.Stats(); st.Plans != 0 {
		t.Fatalf("rejected requests left %d plans in the cache", st.Plans)
	}
}
