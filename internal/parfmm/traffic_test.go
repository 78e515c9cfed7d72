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
			{255623, 5, 255623, 504, 2},
			{277761, 5, 277761, 552, 2},
			{259810, 5, 259810, 512, 2},
			{268496, 5, 268496, 528, 2},
		}},
		{"simple", 4, reduce.Simple, []rankTraffic{
			{259776, 6, 259776, 513, 1},
			{274538, 6, 274538, 545, 1},
			{256587, 6, 256587, 505, 1},
			{272649, 6, 272649, 537, 1},
		}},
		{"owner", 4, reduce.Owner, []rankTraffic{
			{259788, 9, 259788, 513, 0},
			{273628, 9, 273628, 543, 0},
			{255677, 9, 255677, 503, 0},
			{271739, 9, 271739, 535, 0},
		}},
		{"hypercube", 8, reduce.Hypercube, []rankTraffic{
			{174336, 10, 174336, 347, 3},
			{191260, 10, 191260, 383, 3},
			{190541, 10, 190541, 384, 3},
			{195684, 10, 195684, 391, 3},
			{186343, 10, 186343, 372, 3},
			{189409, 10, 189409, 377, 3},
			{189557, 10, 189557, 377, 3},
			{195332, 10, 195332, 390, 3},
		}},
		{"simple", 8, reduce.Simple, []rankTraffic{
			{175735, 14, 175735, 350, 1},
			{194503, 14, 194503, 390, 1},
			{179032, 14, 179032, 359, 1},
			{198466, 14, 198466, 397, 1},
			{186820, 14, 186820, 373, 1},
			{183432, 14, 183432, 364, 1},
			{206630, 14, 206630, 414, 1},
			{202724, 14, 202724, 406, 1},
		}},
		{"owner", 8, reduce.Owner, []rankTraffic{
			{175763, 21, 175763, 350, 0},
			{191765, 21, 191765, 384, 0},
			{176294, 21, 176294, 353, 0},
			{192962, 21, 192962, 385, 0},
			{181316, 21, 181316, 361, 0},
			{177928, 21, 177928, 352, 0},
			{203892, 21, 203892, 408, 0},
			{199986, 21, 199986, 400, 0},
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
