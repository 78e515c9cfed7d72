package shard

import (
	"math"
	"math/rand"
	"testing"

	"kifmm/internal/geom"
	"kifmm/internal/goleak"
	"kifmm/internal/kernel"
	"kifmm/internal/kifmm"
	"kifmm/internal/octree"
)

// buildCase builds one global tree plus operators for a test configuration.
func buildCase(t testing.TB, kern kernel.Kernel, dist geom.Distribution, n, q, order int) (*octree.Tree, *kifmm.Operators, []float64) {
	t.Helper()
	pts := geom.Generate(dist, n, 42)
	tr := octree.Build(pts, q, 20)
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	tr.BuildLists(nil)
	ops := kifmm.NewOperators(kern, order, 1e-9)
	rng := rand.New(rand.NewSource(7))
	den := make([]float64, n*kern.SrcDim())
	for i := range den {
		den[i] = rng.NormFloat64()
	}
	return tr, ops, den
}

// oracle runs the single-engine evaluation on the same tree — the
// reference every sharded apply must reproduce to near machine precision
// (only the shared octants' floating-point summation order differs).
func oracle(t testing.TB, tr *octree.Tree, ops *kifmm.Operators, den []float64, useFFT bool) []float64 {
	t.Helper()
	e := kifmm.NewEngine(ops, tr)
	e.UseFFTM2L = useFFT
	e.SetPointDensities(den)
	e.Evaluate()
	return e.PointPotentials()
}

// relErr computes the relative L2 error between got and want.
func relErr(got, want []float64) float64 {
	var num, den float64
	for i := range got {
		d := got[i] - want[i]
		num += d * d
		den += want[i] * want[i]
	}
	if den == 0 {
		return math.Sqrt(num)
	}
	return math.Sqrt(num / den)
}

func applySharded(t testing.TB, tr *octree.Tree, ops *kifmm.Operators, den []float64, cfg Config) []float64 {
	t.Helper()
	p, err := BuildPlan(tr, cfg)
	if err != nil {
		t.Fatal(err)
	}
	out, err := p.Apply(den)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// diffTol is the sharded-vs-oracle agreement threshold at the default
// pseudo-inverse regularization (Tolerance = 1e-9). The shards partition
// the leaves of the same global tree, so every interaction list is a
// restriction of the oracle's and the two evaluations differ ONLY in the
// floating-point summation order of the shared octants' upward partials.
// That reassociation noise (~machine epsilon) is amplified by the
// regularized pseudo-inverses to roughly ε/Tol: observed ≤ 3e-10 at
// Tol = 1e-9, and ~1e-13 at Tol = 1e-5 where the scaling is asserted to
// the 1e-12 level (TestShardedReassociationOnly).
const diffTol = 1e-9

// TestShardedMatchesOracleLaplace is the core differential: for every rank
// count the sharded apply must agree with the single-engine oracle up to
// reduction summation order (see diffTol).
func TestShardedMatchesOracleLaplace(t *testing.T) {
	// Every rank goroutine and mailbox spun up by the coordinated applies
	// must be gone when the plans are released.
	defer goleak.Check(t)()
	kern := kernel.Laplace{}
	for _, dist := range []geom.Distribution{geom.Uniform, geom.Ellipsoid} {
		tr, ops, den := buildCase(t, kern, dist, 3000, 40, 6)
		want := oracle(t, tr, ops, den, true)
		for _, R := range []int{1, 2, 4, 8} {
			got := applySharded(t, tr, ops, den, Config{
				Ranks: R,
				Spec:  kifmm.EngineSpec{Ops: ops, Workers: 4},
			})
			if err := relErr(got, want); err > diffTol {
				t.Errorf("dist=%v R=%d: rel err %g vs oracle (want ≤ %g)", dist, R, err, diffTol)
			}
		}
	}
}

// TestShardedReassociationOnly pins down that the sharded-vs-oracle
// divergence is pure summation-order noise and nothing structural: with the
// pseudo-inverse regularization loosened to 1e-5 the ε/Tol amplification
// disappears and the sharded apply matches the oracle to 1e-12 relative L2.
// (A structural defect — a missing interaction, a wrong list — would sit at
// the truncation scale, ~1e-5, regardless of Tol.)
func TestShardedReassociationOnly(t *testing.T) {
	kern := kernel.Laplace{}
	pts := geom.Generate(geom.Uniform, 3000, 42)
	tr := octree.Build(pts, 40, 20)
	tr.BuildLists(nil)
	ops := kifmm.NewOperators(kern, 6, 1e-5)
	rng := rand.New(rand.NewSource(7))
	den := make([]float64, 3000)
	for i := range den {
		den[i] = rng.NormFloat64()
	}
	want := oracle(t, tr, ops, den, true)
	for _, R := range []int{2, 4, 8} {
		got := applySharded(t, tr, ops, den, Config{Ranks: R, Spec: kifmm.EngineSpec{Ops: ops}})
		if err := relErr(got, want); err > 1e-12 {
			t.Errorf("R=%d: rel err %g vs oracle (want ≤ 1e-12 at Tol=1e-5)", R, err)
		}
	}
}

// TestShardedNonPow2Simple checks the direct scheme at rank counts that are
// not powers of two (Algorithm 3's hypercube could not run them).
func TestShardedNonPow2Simple(t *testing.T) {
	kern := kernel.Laplace{}
	tr, ops, den := buildCase(t, kern, geom.Ellipsoid, 2000, 40, 6)
	want := oracle(t, tr, ops, den, true)
	for _, R := range []int{3, 5, 7} {
		got := applySharded(t, tr, ops, den, Config{
			Ranks: R,
			Spec:  kifmm.EngineSpec{Ops: ops, Workers: 2},
		})
		if err := relErr(got, want); err > diffTol {
			t.Errorf("R=%d: rel err %g vs oracle", R, err)
		}
	}
}

// TestShardedMatchesOracleStokes covers the vector kernel (3 density and 3
// potential components per point).
func TestShardedMatchesOracleStokes(t *testing.T) {
	kern := kernel.Stokes{}
	for _, dist := range []geom.Distribution{geom.Uniform, geom.Ellipsoid} {
		tr, ops, den := buildCase(t, kern, dist, 1500, 50, 4)
		want := oracle(t, tr, ops, den, true)
		got := applySharded(t, tr, ops, den, Config{
			Ranks: 4,
			Spec:  kifmm.EngineSpec{Ops: ops, Workers: 2},
		})
		if err := relErr(got, want); err > diffTol {
			t.Errorf("stokes dist=%v: rel err %g vs oracle", dist, err)
		}
	}
}

// TestShardedMatchesOracleYukawa covers the inhomogeneous kernel (per-level
// operators).
func TestShardedMatchesOracleYukawa(t *testing.T) {
	kern := kernel.Yukawa{Lambda: 5}
	for _, dist := range []geom.Distribution{geom.Uniform, geom.Ellipsoid} {
		tr, ops, den := buildCase(t, kern, dist, 1500, 50, 4)
		want := oracle(t, tr, ops, den, true)
		got := applySharded(t, tr, ops, den, Config{
			Ranks: 4,
			Spec:  kifmm.EngineSpec{Ops: ops, Workers: 2},
		})
		if err := relErr(got, want); err > diffTol {
			t.Errorf("yukawa dist=%v: rel err %g vs oracle", dist, err)
		}
	}
}

// TestShardedDeterministic: two applies of the same plan and two applies
// from a rebuilt identical plan must agree bit-for-bit (the reduction fixes
// its summation order by rank id and Morton order, not arrival order).
func TestShardedDeterministic(t *testing.T) {
	kern := kernel.Laplace{}
	tr, ops, den := buildCase(t, kern, geom.Ellipsoid, 2000, 40, 6)
	cfg := Config{Ranks: 4, Spec: kifmm.EngineSpec{Ops: ops, Workers: 3}}
	p1, err := BuildPlan(tr, cfg)
	if err != nil {
		t.Fatal(err)
	}
	a, err := p1.Apply(den)
	if err != nil {
		t.Fatal(err)
	}
	b, err := p1.Apply(den) // reused engines
	if err != nil {
		t.Fatal(err)
	}
	p2, err := BuildPlan(tr, cfg)
	if err != nil {
		t.Fatal(err)
	}
	c, err := p2.Apply(den)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if a[i] != b[i] || a[i] != c[i] {
			t.Fatalf("non-deterministic output at %d: %v %v %v", i, a[i], b[i], c[i])
		}
	}
}

// TestShardedTrafficRecorded checks that applies land in the process-wide
// registry, one row per rank.
func TestShardedTrafficRecorded(t *testing.T) {
	Metrics.Reset()
	kern := kernel.Laplace{}
	tr, ops, den := buildCase(t, kern, geom.Uniform, 2000, 40, 4)
	p, err := BuildPlan(tr, Config{Ranks: 4, Spec: kifmm.EngineSpec{Ops: ops}})
	if err != nil {
		t.Fatal(err)
	}
	for apply := 0; apply < 2; apply++ {
		if _, err := p.Apply(den); err != nil {
			t.Fatal(err)
		}
	}
	rows := Metrics.Rows()
	if len(rows) != 4 {
		t.Fatalf("%d traffic rows, want 4", len(rows))
	}
	for r, row := range rows {
		if row.Rank != r || row.Applies != 2 {
			t.Errorf("row %d: rank %d with %d applies, want rank %d with 2", r, row.Rank, row.Applies, r)
		}
		if row.BytesSent <= 0 || row.ReduceOctants <= 0 {
			t.Errorf("rank %d: no traffic recorded (%+v)", r, row.RankTraffic)
		}
	}
	Metrics.Reset()
}

// TestMemoryBytesTracksLayouts: the plan-cache estimate counts what the
// ranks' engine pools carry, each over its LET with the mirror-free layout
// the pool builds itself: it is the sum of the pools' estimates, and each of
// those equals a fresh pool's over the same LET.
func TestMemoryBytesTracksLayouts(t *testing.T) {
	tr, ops, _ := buildCase(t, kernel.Laplace{}, geom.Uniform, 1500, 30, 4)
	spec := kifmm.EngineSpec{Ops: ops}
	p, err := BuildPlan(tr, Config{Ranks: 2, Spec: spec})
	if err != nil {
		t.Fatal(err)
	}
	var sum int64
	for r, rs := range p.ranks {
		fresh := spec.NewPool(rs.dt.Tree, 0)
		fresh.Compile(true)
		if got, want := rs.engines.MemoryBytes(), fresh.MemoryBytes(); got != want {
			t.Errorf("rank %d: pool estimate %d bytes, a fresh pool over its LET %d", r, got, want)
		}
		sum += rs.engines.MemoryBytes()
	}
	if got := p.MemoryBytes(); got != sum {
		t.Fatalf("sharded estimate %d bytes, want the ranks' pools' %d", got, sum)
	}
}
