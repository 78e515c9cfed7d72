package shard

import (
	"math/rand"
	"os"
	"testing"

	"kifmm/internal/geom"
	"kifmm/internal/kernel"
	"kifmm/internal/kifmm"
	"kifmm/internal/octree"
)

// TestTrafficHarness reproduces the EXPERIMENTS.md backend-vs-backend
// traffic table (100k ellipsoid, R ∈ {4,8,16}):
//
//	SHARD_TRAFFIC_HARNESS=1 go test ./internal/shard/ -run TestTrafficHarness -v
//
// Gated behind an env var: it is a measurement, not a check.
func TestTrafficHarness(t *testing.T) {
	if os.Getenv("SHARD_TRAFFIC_HARNESS") == "" {
		t.Skip("set SHARD_TRAFFIC_HARNESS=1 to run the traffic measurement")
	}
	const n = 100_000
	kern := kernel.Laplace{}
	pts := geom.Generate(geom.Ellipsoid, n, 42)
	tr := octree.Build(pts, 100, 20)
	tr.BuildLists(nil)
	ops := kifmm.NewOperators(kern, 6, 1e-9)
	rng := rand.New(rand.NewSource(7))
	den := make([]float64, n)
	for i := range den {
		den[i] = rng.NormFloat64()
	}
	for _, R := range []int{4, 8, 16} {
		for _, backend := range []CommBackend{Hypercube, Simple} {
			Metrics.Reset()
			p, err := BuildPlan(tr, Config{Ranks: R, Backend: backend, Spec: kifmm.EngineSpec{Ops: ops, Workers: 4}})
			if err != nil {
				t.Fatal(err)
			}
			// m = max over ranks of shared octants in the LET.
			m := 0
			for _, rs := range p.ranks {
				if s := len(rs.dt.SharedOctants()); s > m {
					m = s
				}
			}
			if _, err := p.Apply(den); err != nil {
				t.Fatal(err)
			}
			var totOct, maxOct, totBytes, maxBytes, totMsgs, rounds int64
			for _, row := range Metrics.Rows() {
				totOct += row.ReduceOctants
				if row.ReduceOctants > maxOct {
					maxOct = row.ReduceOctants
				}
				totBytes += row.BytesSent
				if row.BytesSent > maxBytes {
					maxBytes = row.BytesSent
				}
				totMsgs += row.MsgsSent
				rounds = row.ReduceRounds
			}
			t.Logf("R=%2d %-9s m=%3d rounds=%d | reduce octants: max-rank %4d total %5d | bytes: max-rank %8d total %9d | msgs total %4d",
				R, backend.Name(), m, rounds, maxOct, totOct, maxBytes, totBytes, totMsgs)
		}
	}
}

// TestTrafficPinned guards the per-rank traffic accounting, which Apply feeds
// from the shared rank evaluator's return values: on one fixed probe the
// bytes, messages, reduce octants and rounds of every rank must repeat
// exactly across two Applies and equal the values recorded from the commit
// before the evaluator was shared.
func TestTrafficPinned(t *testing.T) {
	tr, ops, den := buildCase(t, kernel.Laplace{}, geom.Ellipsoid, 3000, 40, 4)
	for _, tc := range []struct {
		backend CommBackend
		want    []RankTraffic // per rank: bytes, messages, remote bytes, octants, rounds
	}{
		{Simple, []RankTraffic{
			{98193, 2, 98193, 184, 1},
			{100520, 2, 100520, 187, 1},
		}},
		{Hypercube, []RankTraffic{
			{145196, 5, 145196, 273, 2},
			{156775, 5, 156775, 295, 2},
			{147418, 5, 147418, 274, 2},
			{156002, 5, 156002, 291, 2},
		}},
	} {
		p, err := BuildPlan(tr, Config{Ranks: len(tc.want), Backend: tc.backend, Spec: kifmm.EngineSpec{Ops: ops, Workers: 2}})
		if err != nil {
			t.Fatal(err)
		}
		for apply := 0; apply < 2; apply++ {
			Metrics.Reset()
			if _, err := p.Apply(den); err != nil {
				t.Fatal(err)
			}
			rows := Metrics.Rows()
			if len(rows) != len(tc.want) {
				t.Fatalf("%s: %d traffic rows, want %d", tc.backend.Name(), len(rows), len(tc.want))
			}
			for r, row := range rows {
				if row.Rank != r || row.Applies != 1 || row.RankTraffic != tc.want[r] {
					t.Errorf("%s apply %d rank %d: got %+v, want 1 apply of %+v",
						tc.backend.Name(), apply, r, row, tc.want[r])
				}
			}
		}
	}
	Metrics.Reset()
}
