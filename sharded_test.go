package kifmm

import (
	"context"
	"strings"
	"testing"
)

// TestShardedPlanMatchesSingleEngine exercises the public sharded path:
// Options.Shards routes Plan/Apply through the coordinated multi-rank
// evaluation, which must agree with the unsharded plan on the same points
// up to the shared-octant reduction's floating-point summation order (the
// shards partition the same global tree; see internal/shard), at any shard
// count.
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
	for _, R := range []int{1, 2, 3, 4} {
		f, err := New(Options{PointsPerBox: 40, Workers: 4, Shards: R})
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
		got, err := plan.Apply(den)
		if err != nil {
			t.Fatal(err)
		}
		if e := relErr(got, want); e > 1e-9 {
			t.Errorf("R=%d: sharded apply differs by %g", R, e)
		}
		if plan.Evaluations() != 1 {
			t.Fatalf("Evaluations = %d", plan.Evaluations())
		}
	}
	// The process-wide traffic registry must have a row per rank.
	if rows := ShardTrafficStats(); len(rows) < 4 {
		t.Errorf("traffic rows missing a rank: %+v", rows)
	}
}

// TestShardedPlanMemoryBytes: a sharded plan keeps its ranks' local
// essential trees and the global point array their owned leaves alias, not
// the global tree they were cut from, and prices exactly that.
func TestShardedPlanMemoryBytes(t *testing.T) {
	pts, _ := randInput(2500, 1, 61)
	f, err := New(Options{PointsPerBox: 40, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	plan, err := f.Plan(pts)
	if err != nil {
		t.Fatal(err)
	}
	if plan.tree != nil {
		t.Error("sharded plan holds the global tree")
	}
	if got, want := plan.MemoryBytes(), plan.shard.MemoryBytes()+24*int64(len(pts)); got != want {
		t.Errorf("MemoryBytes = %d, want the ranks' %d + 24 B for each of %d points = %d",
			got, plan.shard.MemoryBytes(), len(pts), want)
	}
}

// TestShardedOptionsValidation covers the solver-level option checks: a
// negative shard count is refused, and any positive one is accepted.
func TestShardedOptionsValidation(t *testing.T) {
	if _, err := New(Options{Shards: -1}); err == nil || !strings.Contains(err.Error(), "negative shard count") {
		t.Errorf("negative shards: error %v", err)
	}
	for _, R := range []int{3, 5, 6} {
		if _, err := New(Options{Shards: R}); err != nil {
			t.Errorf("Shards=%d rejected: %v", R, err)
		}
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
	if _, _, _, err := plan.ApplyTraced(context.Background(), den); err == nil {
		t.Fatal("ApplyTraced accepted a sharded plan")
	}
}
