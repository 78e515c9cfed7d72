package kifmm

import (
	"strings"
	"testing"
)

// TestShardedPlanMatchesSingleEngine exercises the public sharded path:
// Options.Shards routes Plan/Apply through the coordinated multi-rank
// evaluation, which must agree with the unsharded plan on the same points
// up to the shared-octant reduction's floating-point summation order (the
// shards partition the same global tree; see internal/shard).
func TestShardedPlanMatchesSingleEngine(t *testing.T) {
	pts, den := randInput(2500, 1, 61)
	base, err := New(Options{PointsPerBox: 40, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	want, err := base.Evaluate(pts, den)
	if err != nil {
		t.Fatal(err)
	}
	for _, comm := range []string{"", "hypercube", "simple"} {
		for _, R := range []int{1, 2, 4} {
			f, err := New(Options{PointsPerBox: 40, Workers: 4, Shards: R, ShardComm: comm})
			if err != nil {
				t.Fatal(err)
			}
			plan, err := f.Plan(pts)
			if err != nil {
				t.Fatal(err)
			}
			if plan.Shards() != R {
				t.Fatalf("Shards() = %d, want %d", plan.Shards(), R)
			}
			if comm == "simple" && plan.ShardBackend() != "simple" {
				t.Fatalf("ShardBackend() = %q", plan.ShardBackend())
			}
			if plan.MemoryBytes() <= 0 {
				t.Fatalf("MemoryBytes = %d", plan.MemoryBytes())
			}
			got, err := plan.Apply(den)
			if err != nil {
				t.Fatal(err)
			}
			if e := relErr(got, want); e > 1e-9 {
				t.Errorf("comm=%q R=%d: sharded apply differs by %g", comm, R, e)
			}
			if plan.Evaluations() != 1 {
				t.Fatalf("Evaluations = %d", plan.Evaluations())
			}
		}
	}
	// The process-wide traffic registry must have rows for both backends.
	rows := ShardTrafficStats()
	seen := map[string]bool{}
	for _, r := range rows {
		seen[r.Backend] = true
	}
	if !seen["hypercube"] || !seen["simple"] {
		t.Errorf("traffic rows missing a backend: %+v", rows)
	}
}

// TestShardedOptionsValidation covers the solver-level option checks.
func TestShardedOptionsValidation(t *testing.T) {
	cases := []struct {
		name string
		opt  Options
		want string
	}{
		{"negative shards", Options{Shards: -1}, "negative shard count"},
		{"hypercube non-pow2", Options{Shards: 3}, "power-of-two"},
		{"unknown backend", Options{Shards: 2, ShardComm: "telepathy"}, "unknown comm backend"},
		{"unknown backend unsharded", Options{ShardComm: "telepathy"}, "unknown comm backend"},
	}
	for _, c := range cases {
		_, err := New(c.opt)
		if err == nil {
			t.Errorf("%s: accepted", c.name)
			continue
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %q lacks %q", c.name, err, c.want)
		}
	}
	// Simple backend at a non-power-of-two shard count is legal.
	if _, err := New(Options{Shards: 3, ShardComm: "simple"}); err != nil {
		t.Errorf("simple R=3 rejected: %v", err)
	}
}

// TestShardedApplyTracedRejected: a sharded plan's ranks run concurrently,
// each its own graphs, so there is no one trace to return.
func TestShardedApplyTracedRejected(t *testing.T) {
	pts, den := randInput(600, 1, 61)
	f, err := New(Options{PointsPerBox: 40, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	plan, err := f.Plan(pts)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := plan.ApplyTraced(den); err == nil {
		t.Fatal("ApplyTraced accepted a sharded plan")
	}
}
