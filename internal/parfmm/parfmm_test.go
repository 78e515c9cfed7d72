package parfmm

import (
	"math"
	"math/rand"
	"testing"

	"kifmm/internal/diag"
	"kifmm/internal/geom"
	"kifmm/internal/kernel"
	"kifmm/internal/kifmm"
	"kifmm/internal/mpi"
	"kifmm/internal/reduce"
)

// sharedOps returns the process-wide operators for kern at surface order p.
func sharedOps(kern kernel.Kernel, p int) *kifmm.Operators {
	return kifmm.SharedOperators.Get(kern, p, 1e-9, 2)
}

// pointKey identifies a point exactly (coordinates survive the wire
// bit-for-bit).
type pointKey struct{ x, y, z float64 }

// runCase evaluates the distributed FMM for n points split over p ranks and
// returns potentials keyed by point, plus the per-rank results.
func runCase(t *testing.T, cfg Config, dist geom.Distribution, n, p int, seed int64) (map[pointKey][]float64, []*Result) {
	t.Helper()
	return runCaseWith(t, cfg, dist, n, p, seed, Evaluate)
}

// runCaseWith is runCase with the per-rank evaluation supplied.
func runCaseWith(t *testing.T, cfg Config, dist geom.Distribution, n, p int, seed int64,
	evaluate func(*mpi.Comm, []geom.Point, []float64, Config) *Result) (map[pointKey][]float64, []*Result) {
	t.Helper()
	td := cfg.Spec.Ops.Kern.TrgDim()
	results := make([]*Result, p)
	mpi.Run(p, func(c *mpi.Comm) {
		pts := geom.GenerateChunk(dist, n, seed, c.Rank(), p)
		den := chunkDensities(cfg, dist, n, seed, c.Rank(), p)
		results[c.Rank()] = evaluate(c, pts, den, cfg)
	})
	got := make(map[pointKey][]float64, n)
	for _, res := range results {
		for i, pt := range res.OwnedPoints {
			got[pointKey{pt.X, pt.Y, pt.Z}] = res.Potentials[i*td : (i+1)*td]
		}
	}
	return got, results
}

// chunkDensities derives this rank's density chunk deterministically from
// the global density stream so all p produce the same global input.
func chunkDensities(cfg Config, dist geom.Distribution, n int, seed int64, r, p int) []float64 {
	sd := cfg.Spec.Ops.Kern.SrcDim()
	rng := rand.New(rand.NewSource(seed * 31))
	all := make([]float64, n*sd)
	for i := range all {
		all[i] = rng.NormFloat64()
	}
	lo, hi := r*n/p, (r+1)*n/p
	return all[lo*sd : hi*sd]
}

// globalDirect computes the exact reference keyed by point.
func globalDirect(cfg Config, dist geom.Distribution, n int, seed int64) map[pointKey][]float64 {
	k := cfg.Spec.Ops.Kern
	pts := geom.Generate(dist, n, seed)
	den := chunkDensities(cfg, dist, n, seed, 0, 1)
	f := kernel.Direct(k, pts, pts, den)
	td := k.TrgDim()
	out := make(map[pointKey][]float64, n)
	for i, pt := range pts {
		out[pointKey{pt.X, pt.Y, pt.Z}] = f[i*td : (i+1)*td]
	}
	return out
}

func compareToDirect(t *testing.T, name string, got, want map[pointKey][]float64, tol float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: point sets differ: %d vs %d", name, len(got), len(want))
	}
	var num, den float64
	for pk, w := range want {
		g, ok := got[pk]
		if !ok {
			t.Fatalf("%s: point %v missing from distributed result", name, pk)
		}
		for x := range w {
			d := g[x] - w[x]
			num += d * d
			den += w[x] * w[x]
		}
	}
	if err := math.Sqrt(num / den); err > tol {
		t.Fatalf("%s: rel err %g > %g", name, err, tol)
	}
}

func TestDistributedMatchesDirectLaplace(t *testing.T) {
	cfg := Config{Q: 25, Spec: kifmm.EngineSpec{Ops: sharedOps(kernel.Laplace{}, 6), Workers: 2, DenseM2L: true}}
	want := globalDirect(cfg, geom.Uniform, 1000, 3)
	for _, p := range []int{1, 2, 4, 8} {
		got, _ := runCase(t, cfg, geom.Uniform, 1000, p, 3)
		compareToDirect(t, "laplace", got, want, 2e-5)
	}
}

func TestDistributedMatchesDirectNonuniform(t *testing.T) {
	cfg := Config{Q: 15, Spec: kifmm.EngineSpec{Ops: sharedOps(kernel.Laplace{}, 6), Workers: 2, DenseM2L: true}}
	want := globalDirect(cfg, geom.Ellipsoid, 1200, 5)
	for _, p := range []int{2, 8} {
		got, _ := runCase(t, cfg, geom.Ellipsoid, 1200, p, 5)
		compareToDirect(t, "ellipsoid", got, want, 5e-5)
	}
}

func TestDistributedStokes(t *testing.T) {
	cfg := Config{Q: 30, Spec: kifmm.EngineSpec{Ops: sharedOps(kernel.Stokes{}, 4), Workers: 2, DenseM2L: true}}
	want := globalDirect(cfg, geom.Uniform, 500, 7)
	got, _ := runCase(t, cfg, geom.Uniform, 500, 4, 7)
	compareToDirect(t, "stokes", got, want, 5e-3)
}

func TestDistributedWithLoadBalance(t *testing.T) {
	cfg := Config{Q: 15, LoadBalance: true, Spec: kifmm.EngineSpec{Ops: sharedOps(kernel.Laplace{}, 6), Workers: 2, DenseM2L: true}}
	want := globalDirect(cfg, geom.Ellipsoid, 1200, 9)
	got, results := runCase(t, cfg, geom.Ellipsoid, 1200, 4, 9)
	compareToDirect(t, "balanced", got, want, 5e-5)
	// Load balancing must improve (or at least not destroy) the flop
	// balance: the max/avg flop ratio should be modest.
	var flops []int64
	for _, res := range results {
		flops = append(flops, res.Prof.Flops(diag.PhaseComp))
	}
	var mx, sum int64
	for _, f := range flops {
		if f > mx {
			mx = f
		}
		sum += f
	}
	avg := float64(sum) / float64(len(flops))
	if float64(mx)/avg > 3.5 {
		t.Fatalf("flop imbalance too high after balancing: max=%d avg=%g", mx, avg)
	}
}

func TestDistributedWithFFTM2L(t *testing.T) {
	cfg := Config{Q: 25, Spec: kifmm.EngineSpec{Ops: sharedOps(kernel.Laplace{}, 6), Workers: 2}}
	want := globalDirect(cfg, geom.Uniform, 800, 11)
	got, _ := runCase(t, cfg, geom.Uniform, 800, 4, 11)
	compareToDirect(t, "fft-m2l", got, want, 2e-5)
}

func TestDistributedOwnerReduceAblation(t *testing.T) {
	cfg := Config{Q: 25, Spec: kifmm.EngineSpec{Ops: sharedOps(kernel.Laplace{}, 6), Workers: 2, DenseM2L: true}}
	want := globalDirect(cfg, geom.Uniform, 800, 13)
	got, _ := runCaseWith(t, cfg, geom.Uniform, 800, 4, 13, func(c *mpi.Comm, pts []geom.Point, den []float64, cfg Config) *Result {
		eng, res := Setup(c, pts, den, cfg)
		EvaluateRank(c, eng, res.Tree, reduce.Owner)
		collectOwned(eng, res)
		return res
	})
	compareToDirect(t, "owner-reduce", got, want, 2e-5)
}

func TestProfilesRecordAllPhases(t *testing.T) {
	cfg := Config{Q: 20, Spec: kifmm.EngineSpec{Ops: sharedOps(kernel.Laplace{}, 4), Workers: 2, DenseM2L: true}}
	_, results := runCase(t, cfg, geom.Ellipsoid, 900, 4, 15)
	for r, res := range results {
		for _, ph := range []string{diag.PhaseSetup, diag.PhaseSort,
			diag.PhaseTotalEval, diag.PhaseComm, diag.PhaseComp} {
			if res.Prof.Time(ph) <= 0 {
				t.Fatalf("rank %d: phase %s has no recorded time", r, ph)
			}
		}
		if res.Prof.Flops(diag.PhaseComp) <= 0 {
			t.Fatalf("rank %d: no compute flops", r)
		}
	}
}

func TestResultDensitiesTravelWithPoints(t *testing.T) {
	cfg := Config{Q: 20, Spec: kifmm.EngineSpec{Ops: sharedOps(kernel.Laplace{}, 4), Workers: 1, DenseM2L: true}}
	const n, p = 600, 4
	// Build the global (point → density) map.
	pts := geom.Generate(geom.Uniform, n, 17)
	den := chunkDensities(cfg, geom.Uniform, n, 17, 0, 1)
	want := make(map[pointKey]float64, n)
	for i, pt := range pts {
		want[pointKey{pt.X, pt.Y, pt.Z}] = den[i]
	}
	_, results := runCaseWith(t, cfg, geom.Uniform, n, p, 17, Evaluate)
	seen := 0
	for _, res := range results {
		for _, leaf := range res.Tree.Leaves {
			for i, pt := range leaf.Pts {
				if leaf.Den[i] != want[pointKey{pt.X, pt.Y, pt.Z}] {
					t.Fatalf("density did not travel with point %v", pt)
				}
				seen++
			}
		}
	}
	if seen != n {
		t.Fatalf("points lost: %d of %d", seen, n)
	}
}

// TestEmptyRankReducers: 3000 uniform points and 800 coincident ones at 8
// ranks leave ranks without a leaf, because the sort sends every copy of a
// key to one rank. Such a rank joins the ghost exchange and each reduction
// with nothing to send. Under the hypercube, the direct scheme and the owner
// baseline alike, the potentials match the single engine's (one rank), and
// the hypercube's per-rank octant count stays within Algorithm 3's bound.
func TestEmptyRankReducers(t *testing.T) {
	// No repartition: it would hand the empty ranks leaves again.
	cfg := Config{Q: 20, Spec: kifmm.EngineSpec{Ops: sharedOps(kernel.Laplace{}, 6), Workers: 1, DenseM2L: true}}
	pts := geom.Generate(geom.Uniform, 3000, 5)
	for range 800 {
		pts = append(pts, geom.Point{X: 0.4, Y: 0.4, Z: 0.7})
	}
	den := chunkDensities(cfg, geom.Uniform, len(pts), 5, 0, 1)
	run := func(p int, red reducer) (map[pointKey][]float64, []reduce.Stats, int, int) {
		results := make([]*Result, p)
		stats := make([]reduce.Stats, p)
		mpi.Run(p, func(c *mpi.Comm) {
			r := c.Rank()
			lo, hi := r*len(pts)/p, (r+1)*len(pts)/p
			eng, res := Setup(c, pts[lo:hi], den[lo:hi], cfg)
			_, stats[r], _, _ = EvaluateRank(c, eng, res.Tree, red)
			collectOwned(eng, res)
			results[r] = res
		})
		got := make(map[pointKey][]float64, len(pts))
		m, empty := 0, 0
		for _, res := range results {
			for i, pt := range res.OwnedPoints {
				got[pointKey{pt.X, pt.Y, pt.Z}] = res.Potentials[i : i+1]
			}
			m = max(m, len(res.Tree.SharedOctants()))
			if len(res.Tree.Leaves) == 0 {
				empty++
			}
		}
		return got, stats, m, empty
	}
	want, _, _, _ := run(1, reduce.Hypercube)
	for _, tc := range []struct {
		name string
		red  reducer
	}{{"hypercube", reduce.Hypercube}, {"simple", reduce.Simple}, {"owner", reduce.Owner}} {
		got, stats, m, empty := run(8, tc.red)
		if empty == 0 {
			t.Fatalf("%s: no rank is empty; the cloud no longer tests empty ranks", tc.name)
		}
		t.Logf("%s: %d of 8 ranks empty", tc.name, empty)
		compareToDirect(t, tc.name, got, want, 2e-5)
		if tc.name != "hypercube" {
			continue
		}
		for r, st := range stats {
			if bound := reduce.Bound(m, 8); float64(st.OctantsSentTotal) > bound {
				t.Errorf("rank %d: sent %d octants > bound %.0f (m=%d)", r, st.OctantsSentTotal, bound, m)
			}
		}
	}
}
