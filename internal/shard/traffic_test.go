package shard

import (
	"testing"

	"kifmm/internal/geom"
	"kifmm/internal/kernel"
	"kifmm/internal/kifmm"
)

// TestTrafficPinned guards the per-rank traffic accounting, which Apply feeds
// from the shared rank evaluator's return values: on one fixed probe the
// bytes, messages, remote bytes and reduce octants of every rank must repeat
// exactly across two Applies and equal the values recorded before the
// evaluator was shared. (Algorithm 3's hypercube rows, and the
// hypercube-vs-simple harness, live in internal/parfmm.)
func TestTrafficPinned(t *testing.T) {
	tr, ops, den := buildCase(t, kernel.Laplace{}, geom.Ellipsoid, 3000, 40, 4)
	want := []RankTraffic{ // per rank: bytes, messages, remote bytes, octants
		{103052, 2, 103052, 194},
		{96583, 2, 96583, 179},
	}
	p, err := BuildPlan(tr, Config{Ranks: len(want), Spec: kifmm.EngineSpec{Ops: ops, Workers: 2}})
	if err != nil {
		t.Fatal(err)
	}
	for apply := 0; apply < 2; apply++ {
		Metrics.Reset()
		if _, err := p.Apply(den); err != nil {
			t.Fatal(err)
		}
		rows := Metrics.Rows()
		if len(rows) != len(want) {
			t.Fatalf("%d traffic rows, want %d", len(rows), len(want))
		}
		for r, row := range rows {
			if row.Rank != r || row.Applies != 1 || row.RankTraffic != want[r] {
				t.Errorf("apply %d rank %d: got %+v, want 1 apply of %+v", apply, r, row, want[r])
			}
		}
	}
	Metrics.Reset()
}
