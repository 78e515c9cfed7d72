package shard

import (
	"strings"
	"testing"

	"kifmm/internal/geom"
	"kifmm/internal/kernel"
	"kifmm/internal/kifmm"
	"kifmm/internal/octree"
)

// TestMoreRanksThanLeaves: when R exceeds the number of occupied leaf
// octants some rank would own nothing — the plan must fail with a clean
// error (the weighted leaf split needs a leaf for every rank, so the guard
// has to fire first), not panic and not hang the rank team.
func TestMoreRanksThanLeaves(t *testing.T) {
	// All points inside one octant at shallow depth: a handful of leaves.
	pts := geom.Generate(geom.Uniform, 60, 42)
	for i := range pts {
		pts[i].X = 0.01 + pts[i].X*0.05
		pts[i].Y = 0.01 + pts[i].Y*0.05
		pts[i].Z = 0.01 + pts[i].Z*0.05
	}
	tr := octree.Build(pts, 100, 20) // q=100 > 60 points: single leaf
	tr.BuildLists(nil)
	ops := kifmm.NewOperators(kernel.Laplace{}, 4, 1e-9)
	if nl := len(tr.Leaves); nl != 1 {
		t.Fatalf("setup: expected a single-leaf tree, got %d leaves", nl)
	}
	_, err := BuildPlan(tr, Config{Ranks: 2, Spec: kifmm.EngineSpec{Ops: ops, DenseM2L: true}})
	if err == nil {
		t.Fatal("expected error for 2 ranks over a 1-leaf tree")
	}
	if !strings.Contains(err.Error(), "leaf octants") {
		t.Fatalf("unhelpful error: %v", err)
	}
}

// TestSingleLeafPerRank: exactly one leaf per rank — the tightest legal
// partition, every leaf a rank boundary, every ancestor shared.
func TestSingleLeafPerRank(t *testing.T) {
	kern := kernel.Laplace{}
	tr, ops, den := buildCase(t, kern, geom.Uniform, 400, 60, 4)
	R := len(tr.Leaves)
	if R < 2 {
		t.Fatalf("setup: want ≥ 2 leaves, got %d", R)
	}
	want := oracle(t, tr, ops, den, true)
	got := applySharded(t, tr, ops, den, Config{
		Ranks: R,
		Spec:  kifmm.EngineSpec{Ops: ops},
	})
	if err := relErr(got, want); err > diffTol {
		t.Errorf("one leaf per rank (R=%d): rel err %g vs oracle", R, err)
	}
}

// TestHeavyLeafAtRankBoundary: one leaf holds the majority of all points
// (a refinement-limited cluster at MaxDepth). The leaf-granular partition
// must keep it intact on a single rank — its weight would otherwise span
// several rank targets — and still give every other rank at least one leaf.
func TestHeavyLeafAtRankBoundary(t *testing.T) {
	kern := kernel.Laplace{}
	// 1500 points collapsed into a tiny ball (one maximal-depth leaf) plus a
	// sparse uniform background.
	pts := geom.Generate(geom.Uniform, 500, 42)
	cluster := geom.Generate(geom.Uniform, 1500, 43)
	for i := range cluster {
		cluster[i].X = 0.30001 + cluster[i].X*1e-7
		cluster[i].Y = 0.30001 + cluster[i].Y*1e-7
		cluster[i].Z = 0.30001 + cluster[i].Z*1e-7
	}
	pts = append(pts, cluster...)
	tr := octree.Build(pts, 40, 8) // MaxDepth 8 caps refinement of the ball
	tr.BuildLists(nil)
	ops := kifmm.NewOperators(kern, 4, 1e-9)
	heavy := 0
	for _, li := range tr.Leaves {
		if np := tr.Nodes[li].NPoints(); np > heavy {
			heavy = np
		}
	}
	if heavy < 1400 {
		t.Fatalf("setup: expected a refinement-limited heavy leaf, max %d points", heavy)
	}
	den := make([]float64, len(pts))
	for i := range den {
		den[i] = float64(i%7) - 3
	}
	want := oracle(t, tr, ops, den, true)
	for _, R := range []int{2, 4} {
		got := applySharded(t, tr, ops, den, Config{
			Ranks: R,
			Spec:  kifmm.EngineSpec{Ops: ops},
		})
		if err := relErr(got, want); err > diffTol {
			t.Errorf("heavy leaf R=%d: rel err %g vs oracle", R, err)
		}
	}
	// Every rank must own at least one leaf despite the weight skew.
	p, err := BuildPlan(tr, Config{Ranks: 4, Spec: kifmm.EngineSpec{Ops: ops, DenseM2L: true}})
	if err != nil {
		t.Fatal(err)
	}
	for r, rs := range p.ranks {
		if len(rs.ownedNodes) == 0 {
			t.Errorf("rank %d owns no leaves", r)
		}
	}
}

// TestReplanDifferentShardCounts: the same tree re-planned with different
// shard counts (the serving layer's "same content hash, different shards"
// case) must produce independent plans that all agree with each other.
func TestReplanDifferentShardCounts(t *testing.T) {
	kern := kernel.Laplace{}
	tr, ops, den := buildCase(t, kern, geom.Ellipsoid, 2000, 40, 4)
	var first []float64
	for _, R := range []int{1, 2, 4} {
		p, err := BuildPlan(tr, Config{Ranks: R, Spec: kifmm.EngineSpec{Ops: ops}})
		if err != nil {
			t.Fatal(err)
		}
		out, err := p.Apply(den)
		if err != nil {
			t.Fatal(err)
		}
		if first == nil {
			first = out
			continue
		}
		if err := relErr(out, first); err > diffTol {
			t.Errorf("R=%d disagrees with R=1 by %g", R, err)
		}
	}
}

// TestConfigValidation exercises the error paths of BuildPlan.
func TestConfigValidation(t *testing.T) {
	tr, ops, _ := buildCase(t, kernel.Laplace{}, geom.Uniform, 500, 40, 4)
	cases := []struct {
		name string
		cfg  Config
	}{
		{"zero ranks", Config{Ranks: 0, Spec: kifmm.EngineSpec{Ops: ops, DenseM2L: true}}},
		{"nil ops", Config{Ranks: 2}},
	}
	for _, tc := range cases {
		if _, err := BuildPlan(tr, tc.cfg); err == nil {
			t.Errorf("%s: expected error", tc.name)
		}
	}
}

// TestApplyValidatesDensityLength checks the density-length guard.
func TestApplyValidatesDensityLength(t *testing.T) {
	tr, ops, den := buildCase(t, kernel.Laplace{}, geom.Uniform, 500, 40, 4)
	p, err := BuildPlan(tr, Config{Ranks: 2, Spec: kifmm.EngineSpec{Ops: ops, DenseM2L: true}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Apply(den[:len(den)-1]); err == nil {
		t.Error("short density vector accepted")
	}
}
