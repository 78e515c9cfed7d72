package service

import (
	"context"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// shardOpts returns fastOpts with sharding enabled.
func shardOpts(shards int) SolverOptions {
	o := fastOpts()
	o.Shards = shards
	return o
}

// TestShardedEvaluateMatchesUnsharded serves the same points sharded and
// unsharded and compares potentials end to end over HTTP: the sharded plan
// partitions the same global tree, so agreement is limited only by the
// shared-octant reduction's floating-point summation order (≤ 1e-9 at the
// default pseudo-inverse regularization; see internal/shard).
func TestShardedEvaluateMatchesUnsharded(t *testing.T) {
	s := New(Config{Workers: 2, QueueDepth: 8})
	defer s.Shutdown(context.Background())
	ts := httptest.NewServer(s)
	defer ts.Close()

	pts, den := testPoints(600, 3)

	var base EvaluateResponse
	code, raw := postJSON(t, ts.Client(), ts.URL+"/v1/evaluate",
		EvaluateRequest{Points: pts, Options: fastOpts(), Densities: den}, &base)
	if code != http.StatusOK {
		t.Fatalf("unsharded evaluate: %d %s", code, raw)
	}

	for _, R := range []int{3, 4} {
		var sharded EvaluateResponse
		code, raw := postJSON(t, ts.Client(), ts.URL+"/v1/evaluate",
			EvaluateRequest{Points: pts, Options: shardOpts(R), Densities: den}, &sharded)
		if code != http.StatusOK {
			t.Fatalf("sharded evaluate (R=%d): %d %s", R, code, raw)
		}
		var num, denom float64
		for i := range base.Potentials {
			d := sharded.Potentials[i] - base.Potentials[i]
			num += d * d
			denom += base.Potentials[i] * base.Potentials[i]
		}
		if e := math.Sqrt(num / denom); e > 1e-9 {
			t.Errorf("R=%d: sharded differs from unsharded by %g", R, e)
		}
		if sharded.PlanID == base.PlanID {
			t.Errorf("R=%d: sharded plan shares the unsharded plan id", R)
		}
	}
}

// TestShardedPlansAreDistinctCacheEntries: the same point set planned at
// different shard counts must hash to distinct plan ids and coexist in the
// cache — the "re-plan after shard count changes" case — while
// "shard_comm":"simple", which names the one reduction sharded plans run,
// shares the plan of the request that omits it.
func TestShardedPlansAreDistinctCacheEntries(t *testing.T) {
	s := New(Config{Workers: 2, QueueDepth: 8})
	defer s.Shutdown(context.Background())
	ts := httptest.NewServer(s)
	defer ts.Close()

	pts, _ := testPoints(400, 4)
	ids := map[string]string{}
	for _, cfg := range []struct {
		name string
		opts SolverOptions
	}{
		{"unsharded", fastOpts()},
		{"R2", shardOpts(2)},
		{"R3", shardOpts(3)},
		{"R4", shardOpts(4)},
	} {
		var plan PlanResponse
		code, raw := postJSON(t, ts.Client(), ts.URL+"/v1/plan",
			PlanRequest{Points: pts, Options: cfg.opts}, &plan)
		if code != http.StatusOK {
			t.Fatalf("%s: %d %s", cfg.name, code, raw)
		}
		if plan.Cached {
			t.Errorf("%s: unexpectedly cached", cfg.name)
		}
		for prev, id := range ids {
			if id == plan.PlanID {
				t.Errorf("%s and %s share plan id %s", cfg.name, prev, id)
			}
		}
		ids[cfg.name] = plan.PlanID

		// Re-planning the identical configuration is a hit on its own entry.
		var again PlanResponse
		postJSON(t, ts.Client(), ts.URL+"/v1/plan", PlanRequest{Points: pts, Options: cfg.opts}, &again)
		if !again.Cached || again.PlanID != plan.PlanID {
			t.Errorf("%s: re-plan missed its own cache entry (%+v)", cfg.name, again)
		}
	}
	simple := shardOpts(4)
	simple.ShardComm = "simple"
	var plan PlanResponse
	code, raw := postJSON(t, ts.Client(), ts.URL+"/v1/plan", PlanRequest{Points: pts, Options: simple}, &plan)
	if code != http.StatusOK || !plan.Cached || plan.PlanID != ids["R4"] {
		t.Errorf(`"shard_comm":"simple" missed the R4 plan %s: %d %s`, ids["R4"], code, raw)
	}
}

// TestShardsCapRejected: options.shards above the server cap is a 400, both
// on /v1/plan and inline /v1/evaluate.
func TestShardsCapRejected(t *testing.T) {
	s := New(Config{Workers: 1, QueueDepth: 4, MaxShards: 4})
	defer s.Shutdown(context.Background())
	ts := httptest.NewServer(s)
	defer ts.Close()

	pts, den := testPoints(200, 5)
	code, raw := postJSON(t, ts.Client(), ts.URL+"/v1/plan",
		PlanRequest{Points: pts, Options: shardOpts(8)}, nil)
	if code != http.StatusBadRequest || !strings.Contains(raw, "server cap") {
		t.Fatalf("plan over cap: %d %s", code, raw)
	}
	code, raw = postJSON(t, ts.Client(), ts.URL+"/v1/evaluate",
		EvaluateRequest{Points: pts, Options: shardOpts(8), Densities: den}, nil)
	if code != http.StatusBadRequest || !strings.Contains(raw, "server cap") {
		t.Fatalf("evaluate over cap: %d %s", code, raw)
	}
	// At the cap is fine.
	code, raw = postJSON(t, ts.Client(), ts.URL+"/v1/evaluate",
		EvaluateRequest{Points: pts, Options: shardOpts(4), Densities: den}, &EvaluateResponse{})
	if code != http.StatusOK {
		t.Fatalf("evaluate at cap: %d %s", code, raw)
	}
}

// TestMetricsExposeShardTraffic: after a sharded evaluation, /metrics must
// carry per-rank traffic rows under the names and the backend label clients
// already parse, the engine rows and the communication time of the sharded
// Apply's record, and no reduce-rounds series (one reduction: every row
// would equal the applies).
func TestMetricsExposeShardTraffic(t *testing.T) {
	s := New(Config{Workers: 1, QueueDepth: 4})
	defer s.Shutdown(context.Background())
	ts := httptest.NewServer(s)
	defer ts.Close()

	pts, den := testPoints(400, 6)
	opts := shardOpts(2)
	opts.ShardComm = "simple" // the benchmark's request
	code, raw := postJSON(t, ts.Client(), ts.URL+"/v1/evaluate",
		EvaluateRequest{Points: pts, Options: opts, Densities: den}, &EvaluateResponse{})
	if code != http.StatusOK {
		t.Fatalf("evaluate: %d %s", code, raw)
	}
	resp, err := ts.Client().Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	text := string(body)
	for _, series := range []string{"bytes_sent", "remote_bytes_sent", "msgs_sent", "reduce_octants_sent", "applies"} {
		for _, rank := range []string{"0", "1"} {
			if want := "fmmserve_shard_" + series + `{backend="simple",rank="` + rank + `"} `; !strings.Contains(text, want) {
				t.Errorf("metrics missing %q", want)
			}
		}
	}
	for _, want := range []string{
		`kifmm_phase_seconds_total{phase="Shard comm"}`,
		`kifmm_phase_seconds_total{phase="U-list"}`,
		`kifmm_phase_flops_total{phase="Upward"}`,
		`kifmm_phase_flops_total{phase="U-list"}`,
		"kifmm_sched_graphs_total 4\n", // two graphs per rank
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
	if !strings.Contains(text, "fmmserve_max_shards 16") {
		t.Error("metrics missing fmmserve_max_shards 16")
	}
	if strings.Contains(text, "reduce_rounds") {
		t.Error("metrics still carry a reduce-rounds series")
	}
}
