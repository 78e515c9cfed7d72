package parfmm

import (
	"math/rand"
	"os"
	"testing"

	"kifmm/internal/geom"
	"kifmm/internal/kernel"
	"kifmm/internal/kifmm"
	"kifmm/internal/mpi"
	"kifmm/internal/reduce"
)

// rankTraffic is one rank's evaluation-step traffic: the ghost-density
// exchange plus the upward-density reduction.
type rankTraffic struct {
	Bytes, Msgs, RemoteBytes int64 // outgoing, self-sends included in the first two
	Octants, Rounds          int   // reduction octant records sent, exchange rounds
}

// evaluateTraffic runs Setup + EvaluateRank(…, red) over p ranks, the input
// split evenly by index as EvaluateDistributed splits it, and returns every
// rank's traffic, owned potentials and shared-octant count.
func evaluateTraffic(pts []geom.Point, den []float64, cfg Config, p int, red reducer) ([]rankTraffic, [][]float64, []int) {
	traffic := make([]rankTraffic, p)
	pots := make([][]float64, p)
	shared := make([]int, p)
	mpi.Run(p, func(c *mpi.Comm) {
		r := c.Rank()
		lo, hi := r*len(pts)/p, (r+1)*len(pts)/p
		eng, res := Setup(c, pts[lo:hi], den[lo:hi], cfg)
		_, st, snap, _ := EvaluateRank(c, eng, res.Tree, red)
		collectOwned(eng, res)
		traffic[r] = rankTraffic{snap.Bytes, snap.Messages, snap.RemoteBytes,
			st.OctantsSentTotal, len(st.OctantsSentPerRound)}
		pots[r] = res.Potentials
		shared[r] = len(res.Tree.SharedOctants())
	})
	return traffic, pots, shared
}

// trafficInput is the Laplace input both traffic tests evaluate: n points on
// the paper's 1:1:4 ellipsoid with normal densities.
func trafficInput(n, q, order int) ([]geom.Point, []float64, Config) {
	pts := geom.Generate(geom.Ellipsoid, n, 42)
	rng := rand.New(rand.NewSource(7))
	den := make([]float64, n)
	for i := range den {
		den[i] = rng.NormFloat64()
	}
	kern := kernel.Laplace{}
	return pts, den, Config{Kern: kern, Q: q, SurfOrder: order, LoadBalance: true,
		Spec: kifmm.EngineSpec{Ops: kifmm.NewOperators(kern, order, 1e-9), Workers: 2}}
}

// TestTrafficPinned holds Algorithm 3's hypercube and the one-round direct
// scheme to the per-rank traffic recorded on one fixed input (3000 ellipsoid
// points over 4 ranks): bytes, messages, remote bytes, reduction octants and
// rounds must repeat exactly, and the two reductions must return the same
// potentials bit for bit.
func TestTrafficPinned(t *testing.T) {
	pts, den, cfg := trafficInput(3000, 40, 4)
	var first [][]float64
	for _, tc := range []struct {
		name string
		red  reducer
		want []rankTraffic
	}{
		{"hypercube", reduce.Hypercube, []rankTraffic{
			{255623, 5, 255623, 504, 2},
			{277761, 5, 277761, 552, 2},
			{259810, 5, 259810, 512, 2},
			{268496, 5, 268496, 528, 2},
		}},
		{"simple", reduce.Simple, []rankTraffic{
			{259776, 6, 259776, 513, 1},
			{274538, 6, 274538, 545, 1},
			{256587, 6, 256587, 505, 1},
			{272649, 6, 272649, 537, 1},
		}},
	} {
		got, pots, _ := evaluateTraffic(pts, den, cfg, 4, tc.red)
		for r := range got {
			if got[r] != tc.want[r] {
				t.Errorf("%s rank %d: got %+v, want %+v", tc.name, r, got[r], tc.want[r])
			}
		}
		if first == nil {
			first = pots
			continue
		}
		for r := range pots {
			for i := range pots[r] {
				if pots[r][i] != first[r][i] {
					t.Fatalf("%s rank %d potential %d: %v, hypercube %v", tc.name, r, i, pots[r][i], first[r][i])
				}
			}
		}
	}
}

// TestTrafficHarness reproduces the EXPERIMENTS.md hypercube-vs-simple
// traffic table (100k ellipsoid, R ∈ {4, 8, 16}, parfmm's partition):
//
//	PARFMM_TRAFFIC_HARNESS=1 go test ./internal/parfmm/ -run TestTrafficHarness -v
//
// Gated behind an env var: it is a measurement, not a check.
func TestTrafficHarness(t *testing.T) {
	if os.Getenv("PARFMM_TRAFFIC_HARNESS") == "" {
		t.Skip("set PARFMM_TRAFFIC_HARNESS=1 to run the traffic measurement")
	}
	pts, den, cfg := trafficInput(100_000, 100, 6)
	for _, p := range []int{4, 8, 16} {
		for _, tc := range []struct {
			name string
			red  reducer
		}{{"hypercube", reduce.Hypercube}, {"simple", reduce.Simple}} {
			traffic, _, shared := evaluateTraffic(pts, den, cfg, p, tc.red)
			var m, maxOct, totOct, rounds int
			var maxBytes, totBytes, totMsgs int64
			for r, tr := range traffic {
				m = max(m, shared[r])
				maxOct, totOct = max(maxOct, tr.Octants), totOct+tr.Octants
				maxBytes, totBytes = max(maxBytes, tr.Bytes), totBytes+tr.Bytes
				totMsgs += tr.Msgs
				rounds = tr.Rounds
			}
			t.Logf("R=%2d %-9s m=%3d rounds=%d | reduce octants: max-rank %4d total %5d | bytes: max-rank %8d total %9d | msgs total %4d",
				p, tc.name, m, rounds, maxOct, totOct, maxBytes, totBytes, totMsgs)
		}
	}
}
