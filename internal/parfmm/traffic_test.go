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
	return pts, den, Config{Q: q, LoadBalance: true,
		Spec: kifmm.EngineSpec{Ops: kifmm.NewOperators(kernel.Laplace{}, order, 1e-9), Workers: 2}}
}

// TestTrafficPinned holds Algorithm 3's hypercube, the one-round direct
// scheme and the owner baseline to the per-rank traffic recorded on one fixed
// input (3000 ellipsoid points over 4 and 8 ranks, two and three hypercube
// rounds): bytes, messages, remote bytes, reduction octants and rounds must
// repeat exactly, and at each rank count the three reductions must return the
// same potentials bit for bit.
func TestTrafficPinned(t *testing.T) {
	pts, den, cfg := trafficInput(3000, 40, 4)
	first := map[int][][]float64{} // the hypercube's potentials per rank count
	for _, tc := range []struct {
		name string
		p    int
		red  reducer
		want []rankTraffic
	}{
		{"hypercube", 4, reduce.Hypercube, []rankTraffic{
			{273953, 5, 273953, 543, 2},
			{274008, 5, 274008, 544, 2},
			{272662, 5, 272662, 538, 2},
			{265357, 5, 265357, 523, 2},
		}},
		{"simple", 4, reduce.Simple, []rankTraffic{
			{276723, 6, 276723, 549, 1},
			{276778, 6, 276778, 550, 1},
			{270822, 6, 270822, 534, 1},
			{263517, 6, 263517, 519, 1},
		}},
		{"owner", 4, reduce.Owner, []rankTraffic{
			{276735, 9, 276735, 549, 0},
			{273102, 9, 273102, 542, 0},
			{267146, 9, 267146, 526, 0},
			{257075, 9, 257075, 505, 0},
		}},
		{"hypercube", 8, reduce.Hypercube, []rankTraffic{
			{207759, 10, 207759, 409, 3},
			{223953, 10, 223953, 446, 3},
			{240722, 10, 240722, 487, 3},
			{226852, 10, 226852, 455, 3},
			{291522, 10, 291522, 591, 3},
			{227128, 10, 227128, 452, 3},
			{206990, 10, 206990, 411, 3},
			{228928, 10, 228928, 462, 3},
		}},
		{"simple", 8, reduce.Simple, []rankTraffic{
			{253414, 14, 253414, 508, 1},
			{225813, 14, 225813, 450, 1},
			{233362, 14, 233362, 471, 1},
			{210733, 14, 210733, 420, 1},
			{229764, 14, 229764, 457, 1},
			{238208, 14, 238208, 476, 1},
			{237893, 14, 237893, 478, 1},
			{208199, 14, 208199, 417, 1},
		}},
		{"owner", 8, reduce.Owner, []rankTraffic{
			{253442, 21, 253442, 508, 0},
			{217543, 21, 217543, 432, 0},
			{227858, 21, 227858, 459, 0},
			{202463, 21, 202463, 402, 0},
			{221494, 21, 221494, 439, 0},
			{229938, 21, 229938, 458, 0},
			{223630, 21, 223630, 447, 0},
			{193475, 21, 193475, 385, 0},
		}},
	} {
		got, pots, _ := evaluateTraffic(pts, den, cfg, tc.p, tc.red)
		for r := range got {
			if got[r] != tc.want[r] {
				t.Errorf("%s p=%d rank %d: got %+v, want %+v", tc.name, tc.p, r, got[r], tc.want[r])
			}
		}
		ref, ok := first[tc.p]
		if !ok {
			first[tc.p] = pots
			continue
		}
		for r := range pots {
			for i := range pots[r] {
				if pots[r][i] != ref[r][i] {
					t.Fatalf("%s p=%d rank %d potential %d: %v, hypercube %v", tc.name, tc.p, r, i, pots[r][i], ref[r][i])
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
