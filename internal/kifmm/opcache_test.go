package kifmm

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"

	"kifmm/internal/geom"
	"kifmm/internal/kernel"
	"kifmm/internal/linalg"
	"kifmm/internal/octree"
)

// sequentialMats is the oracle for buildLevel: the same pieces, row-major,
// one after another on the calling goroutine, in the textbook order, and
// returned in levelNames' order. DC2DE is UC2UE's transpose (one solve per
// level; TestDC2DEMatchesOwnSolve bounds it against a solve of its own),
// and each U2U product evaluates K(uc, child) itself rather than
// transposing the D2D matrix. Its pseudo-inverse goes through
// linalg.ComputeSVD, which internal/linalg's TestComputeSVDBitIdentical pins
// bit for bit to the reference Jacobi loop on these same surface matrices.
func sequentialMats(o *Operators, l int) []*linalg.Mat {
	half := math.Pow(2, -float64(l)) / 2
	center := geom.Point{}
	ue := o.Grid.Points(center, RadInner*half)
	uc := o.Grid.Points(center, RadOuter*half)
	de := o.Grid.Points(center, RadOuter*half)
	uc2ue := linalg.PinvTikhonov(kernel.Matrix(o.Kern, uc, ue), o.Tol)
	mats := []*linalg.Mat{uc2ue, uc2ue.T()}
	var d2d []*linalg.Mat
	for c := 0; c < 8; c++ {
		cc := childCenter(center, half, c)
		cue := o.Grid.Points(cc, RadInner*half/2)
		cdc := o.Grid.Points(cc, RadInner*half/2)
		mats = append(mats, uc2ue.Mul(kernel.Matrix(o.Kern, uc, cue)))
		d2d = append(d2d, kernel.Matrix(o.Kern, cdc, de))
	}
	return append(mats, d2d...)
}

// levelNames names a table's 18 operators in sequentialMats' order.
func levelNames() []string {
	names := []string{"UC2UE", "DC2DE"}
	for c := 0; c < 8; c++ {
		names = append(names, fmt.Sprintf("U2U[%d]", c))
	}
	for c := 0; c < 8; c++ {
		names = append(names, fmt.Sprintf("D2D[%d]", c))
	}
	return names
}

// levelPacked lists a table's 18 operators in levelNames' order.
func levelPacked(lo *levelOps) []*linalg.Packed {
	return append([]*linalg.Packed{lo.UC2UE, lo.DC2DE}, append(lo.U2U[:], lo.D2D[:]...)...)
}

// levelDiff names the first operator of got whose packed bits differ from
// the oracle matrix at the same place in want, packed (which consumes it),
// ("" when none does).
func levelDiff(got *levelOps, want []*linalg.Mat) string {
	names := levelNames()
	for k, g := range levelPacked(got) {
		w := linalg.Pack(want[k])
		if g.Rows != w.Rows || g.Cols != w.Cols || len(g.Data) != len(w.Data) {
			return names[k] + ": shape differs"
		}
		for i := range g.Data {
			if math.Float64bits(g.Data[i]) != math.Float64bits(w.Data[i]) {
				return fmt.Sprintf("%s: packed element %d is %v, want %v", names[k], i, g.Data[i], w.Data[i])
			}
		}
	}
	return ""
}

// TestNewOperatorsBitIdentical: the build of the surface operators at 1, 2
// and 4 workers equals the sequential build bit for bit — the reference
// tables of homogeneous kernels, and the per-level tables of Yukawa at a
// coarse and a fine level.
func TestNewOperatorsBitIdentical(t *testing.T) {
	cases := []struct {
		kern   kernel.Kernel
		p      int
		levels []int
	}{
		{kernel.Laplace{}, 5, nil},
		{kernel.Stokes{}, 4, nil},
		{kernel.Yukawa{Lambda: 5}, 4, []int{0, 3}},
	}
	for _, c := range cases {
		for _, workers := range []int{1, 2, 4} {
			ops := newOperators(c.kern, c.p, 1e-9, workers)
			if ops.homogeneous {
				if d := levelDiff(ops.levels[0].Load(), sequentialMats(ops, 0)); d != "" {
					t.Fatalf("%s p=%d, %d workers: %s", c.kern.Name(), c.p, workers, d)
				}
				continue
			}
			for _, l := range c.levels {
				if d := levelDiff(ops.buildLevel(l, workers), sequentialMats(ops, l)); d != "" {
					t.Fatalf("%s p=%d level %d, %d workers: %s", c.kern.Name(), c.p, l, workers, d)
				}
			}
		}
	}
}

// TestPackedOperatorsMatchRowLoop is the real-operator oracle of the packed
// product: for every operator of the production tables — Laplace order 6,
// Stokes order 5, and Yukawa λ=5 order 6 at levels 0 and 3 — MulVec and
// MulVecAdd (into a prefilled y) on random x equal the row loop over the
// row-major oracle matrix bit for bit. It needs the packed entries to be
// exactly the oracle's (levelDiff checks that at smaller orders) and the
// packed kernels to round as the row loop does.
func TestPackedOperatorsMatchRowLoop(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the production operator tables twice")
	}
	cases := []struct {
		kern   kernel.Kernel
		p      int
		levels []int
	}{
		{kernel.Laplace{}, 6, []int{0}},
		{kernel.Stokes{}, 5, []int{0}},
		{kernel.Yukawa{Lambda: 5}, 6, []int{0, 3}},
	}
	rng := rand.New(rand.NewSource(11))
	names := levelNames()
	for _, c := range cases {
		ops := NewOperators(c.kern, c.p, 1e-9)
		for _, l := range c.levels {
			got := ops.table(l, 1)
			for k, m := range sequentialMats(ops, l) {
				p := levelPacked(got)[k]
				x, y0 := make([]float64, m.Cols), make([]float64, m.Rows)
				for i := range x {
					x[i] = rng.NormFloat64()
				}
				for i := range y0 {
					y0[i] = rng.NormFloat64()
				}
				want, y := make([]float64, m.Rows), make([]float64, m.Rows)
				m.MulVec(want, x)
				p.MulVec(y, x)
				if d := bitsDiff(y, want); d != "" {
					t.Fatalf("%s p=%d level %d %s: MulVec %s", c.kern.Name(), c.p, l, names[k], d)
				}
				for i := range want {
					want[i] += y0[i]
				}
				copy(y, y0)
				p.MulVecAdd(y, x)
				if d := bitsDiff(y, want); d != "" {
					t.Fatalf("%s p=%d level %d %s: MulVecAdd %s", c.kern.Name(), c.p, l, names[k], d)
				}
			}
		}
	}
}

// bitsDiff describes the first element whose bits differ ("" when none
// does).
func bitsDiff(got, want []float64) string {
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			return fmt.Sprintf("element %d is %v, want %v", i, got[i], want[i])
		}
	}
	return ""
}

// levelTables returns how many level tables ops holds: level 0's, built
// with the operators, and the others built since. Every build publishes its
// table (builds are serialized, none is discarded), so the count only grows
// by building.
func levelTables(ops *Operators) (n int) {
	for l := range ops.levels {
		if ops.levels[l].Load() != nil {
			n++
		}
	}
	return n
}

// TestPrewarmBuildsEveryLevelTable: for a non-homogeneous kernel,
// PrewarmLevels (what Plan and NewSession call) builds the per-level table of every level
// at which the tree has octants, and the first Apply after it builds none —
// no Apply task pays for a table or races another for it.
func TestPrewarmBuildsEveryLevelTable(t *testing.T) {
	ops := NewOperators(kernel.Yukawa{Lambda: 5}, 4, 1e-9)
	pts := geom.Generate(geom.Ellipsoid, 3000, 5)
	tree := octree.Build(pts, 40, 20)
	tree.BuildLists(nil)
	spec := EngineSpec{Ops: ops, Workers: 2}

	ops.PrewarmLevels(tree, spec.Workers)
	want := tree.MaxLevel() + 1
	if got := levelTables(ops); got != want {
		t.Fatalf("Prewarm built %d level tables, want one per level 0..%d", got, tree.MaxLevel())
	}
	e := spec.NewEngine(tree, nil)
	e.SetPointDensities(randDensities(rand.New(rand.NewSource(1)), len(pts), 1))
	if _, err := e.Run(context.Background(), nil, nil); err != nil {
		t.Fatal(err)
	}
	if got := levelTables(ops); got != want {
		t.Fatalf("the first Apply built %d level tables, want 0", got-want)
	}
}

// TestLevelTablesConcurrent: goroutines racing for one Yukawa level's
// table, its V-list spectra and a dense M2L matrix all receive the one
// published value, and the level's 316 spectra are looked up once. Run it
// under -race.
func TestLevelTablesConcurrent(t *testing.T) {
	ops := NewOperators(kernel.Yukawa{Lambda: 5}, 4, 1e-9)
	st0 := SharedTranslations.Stats()
	const n = 8
	var tabs [n]*levelOps
	var specs [n]*vTable
	var m2ls [n]*linalg.Mat
	var wg sync.WaitGroup
	for g := range n {
		wg.Add(1)
		go func() {
			defer wg.Done()
			specs[g] = ops.vTable(3, 2)
			tabs[g] = ops.table(3, 2)
			m2ls[g], _ = ops.M2LAt(3, 2, -3, 0)
		}()
	}
	wg.Wait()
	for g := 1; g < n; g++ {
		if tabs[g] != tabs[0] || specs[g] != specs[0] || m2ls[g] != m2ls[0] {
			t.Fatalf("goroutine %d received another table, spectra or M2L matrix than goroutine 0", g)
		}
	}
	if specs[0] != tabs[0].v.Load() || tabs[0].level != 3 {
		t.Fatal("the spectra are not level 3's table's own")
	}
	st := SharedTranslations.Stats()
	if got := st.Hits + st.Misses - st0.Hits - st0.Misses; got != 316 {
		t.Fatalf("%d racing resolutions made %d spectrum lookups, want 316", n, got)
	}
}

// TestOperatorCacheSingleflight: concurrent Gets of one absent key build
// the operators once and all receive that one set; the losers count as hits.
func TestOperatorCacheSingleflight(t *testing.T) {
	c := NewOperatorCache(4)
	const n = 8
	got := make([]*Operators, n)
	var wg sync.WaitGroup
	for g := 0; g < n; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[g] = c.Get(kernel.Laplace{}, 4, 1e-9, 2)
		}()
	}
	wg.Wait()
	for g := 1; g < n; g++ {
		if got[g] != got[0] {
			t.Fatalf("Get %d returned a different Operators than Get 0", g)
		}
	}
	if st := c.Stats(); st.Misses != 1 || st.Hits != n-1 || st.Entries != 1 {
		t.Fatalf("stats %+v, want 1 miss (one build), %d hits, 1 entry", st, n-1)
	}
}

// TestOperatorCacheKeys: the key is (kernel identity, order, tolerance) —
// each component on its own makes a new entry — and the count bound holds
// with LRU eviction.
func TestOperatorCacheKeys(t *testing.T) {
	c := NewOperatorCache(3)
	base := c.Get(kernel.Yukawa{Lambda: 5}, 4, 1e-9, 1)
	for _, other := range []*Operators{
		c.Get(kernel.Yukawa{Lambda: 6}, 4, 1e-9, 1),
		c.Get(kernel.Yukawa{Lambda: 5}, 5, 1e-9, 1),
		c.Get(kernel.Yukawa{Lambda: 5}, 4, 1e-8, 1),
	} {
		if other == base {
			t.Fatal("a different kernel, order or tolerance was served the same Operators")
		}
	}
	st := c.Stats()
	if st.Misses != 4 || st.Entries != 3 || st.Evictions != 1 || st.Max != 3 {
		t.Fatalf("stats %+v, want 4 misses, 3 entries, 1 eviction, bound 3", st)
	}
	// The first key was least recently used, so it was evicted: a rebuild.
	if c.Get(kernel.Yukawa{Lambda: 5}, 4, 1e-9, 1) == base {
		t.Fatal("the evicted Operators was served again")
	}
	// A NaN tolerance, which kifmm.New refuses but a caller of Get inside
	// the module could still pass, is a key like any other: found again,
	// and evictable.
	nan := c.Get(kernel.Yukawa{Lambda: 5}, 4, math.NaN(), 1)
	if c.Get(kernel.Yukawa{Lambda: 5}, 4, math.NaN(), 1) != nan {
		t.Fatal("a NaN tolerance missed its own entry")
	}
	if st := c.Stats(); st.Entries != 3 {
		t.Fatalf("%d entries, want the bound 3", st.Entries)
	}
}
