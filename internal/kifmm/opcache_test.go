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

// sequentialLevel is the oracle for buildLevel: the same pieces, one after
// another on the calling goroutine, in the textbook order. Its
// pseudo-inverses go through linalg.ComputeSVD, which internal/linalg's
// TestComputeSVDBitIdentical pins bit for bit to the reference Jacobi loop
// on these same surface matrices.
func sequentialLevel(o *Operators, l int) *levelOps {
	half := math.Pow(2, -float64(l)) / 2
	center := geom.Point{}
	ue := o.Grid.Points(center, RadInner*half)
	uc := o.Grid.Points(center, RadOuter*half)
	dc := o.Grid.Points(center, RadInner*half)
	de := o.Grid.Points(center, RadOuter*half)
	lo := &levelOps{
		UC2UE: linalg.PinvTikhonov(kernel.Matrix(o.Kern, uc, ue), o.Tol),
		DC2DE: linalg.PinvTikhonov(kernel.Matrix(o.Kern, dc, de), o.Tol),
	}
	for c := 0; c < 8; c++ {
		cc := childCenter(center, half, c)
		cue := o.Grid.Points(cc, RadInner*half/2)
		cdc := o.Grid.Points(cc, RadInner*half/2)
		lo.U2U[c] = lo.UC2UE.Mul(kernel.Matrix(o.Kern, uc, cue))
		lo.D2D[c] = kernel.Matrix(o.Kern, cdc, de)
	}
	return lo
}

// levelDiff names the first matrix of got whose bits differ from want's
// ("" when none does).
func levelDiff(got, want *levelOps) string {
	mats := func(lo *levelOps) []*linalg.Mat {
		return append([]*linalg.Mat{lo.UC2UE, lo.DC2DE}, append(lo.U2U[:], lo.D2D[:]...)...)
	}
	names := []string{"UC2UE", "DC2DE"}
	for c := 0; c < 8; c++ {
		names = append(names, fmt.Sprintf("U2U[%d]", c))
	}
	for c := 0; c < 8; c++ {
		names = append(names, fmt.Sprintf("D2D[%d]", c))
	}
	g, w := mats(got), mats(want)
	for k := range g {
		if g[k].Rows != w[k].Rows || g[k].Cols != w[k].Cols {
			return names[k] + ": shape differs"
		}
		for i := range g[k].Data {
			if math.Float64bits(g[k].Data[i]) != math.Float64bits(w[k].Data[i]) {
				return fmt.Sprintf("%s: element %d is %v, want %v", names[k], i, g[k].Data[i], w[k].Data[i])
			}
		}
	}
	return ""
}

// TestNewOperatorsBitIdentical: the task-graph build of the surface
// operators at 1, 2 and 4 workers equals the sequential build bit for bit —
// the reference tables of homogeneous kernels, and the per-level tables of
// Yukawa at a coarse and a fine level.
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
			if ops.Homogeneous() {
				got := &levelOps{UC2UE: ops.UC2UE, DC2DE: ops.DC2DE, U2U: ops.U2U, D2D: ops.D2D}
				if d := levelDiff(got, sequentialLevel(ops, 0)); d != "" {
					t.Fatalf("%s p=%d, %d workers: %s", c.kern.Name(), c.p, workers, d)
				}
				continue
			}
			for _, l := range c.levels {
				if d := levelDiff(ops.buildLevel(l, workers), sequentialLevel(ops, l)); d != "" {
					t.Fatalf("%s p=%d level %d, %d workers: %s", c.kern.Name(), c.p, l, workers, d)
				}
			}
		}
	}
}

// levelTables returns how many per-level tables ops holds. Every build
// inserts its table (builds are serialized, none is discarded), so the count
// only grows by building.
func levelTables(ops *Operators) int {
	if m := ops.perLevel.p.Load(); m != nil {
		return len(*m)
	}
	return 0
}

// TestPrewarmBuildsEveryLevelTable: for a non-homogeneous kernel, Prewarm
// (what Plan and NewSession call) builds the per-level table of every level
// at which the tree has octants, and the first Apply after it builds none —
// no Apply task pays for a table or races another for it.
func TestPrewarmBuildsEveryLevelTable(t *testing.T) {
	ops := NewOperators(kernel.Yukawa{Lambda: 5}, 4, 1e-9)
	pts := geom.Generate(geom.Ellipsoid, 3000, 5)
	tree := octree.Build(pts, 40, 20)
	tree.BuildLists(nil)
	spec := EngineSpec{Ops: ops, Workers: 2}

	spec.Prewarm(tree)
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
	if st.Misses != 4 || st.Entries != 3 || st.Evictions != 1 || st.MaxEntries != 3 {
		t.Fatalf("stats %+v, want 4 misses, 3 entries, 1 eviction, bound 3", st)
	}
	// The first key was least recently used, so it was evicted: a rebuild.
	if c.Get(kernel.Yukawa{Lambda: 5}, 4, 1e-9, 1) == base {
		t.Fatal("the evicted Operators was served again")
	}
	// A NaN tolerance is a key like any other: found again, and evictable.
	nan := c.Get(kernel.Yukawa{Lambda: 5}, 4, math.NaN(), 1)
	if c.Get(kernel.Yukawa{Lambda: 5}, 4, math.NaN(), 1) != nan {
		t.Fatal("a NaN tolerance missed its own entry")
	}
	if st := c.Stats(); st.Entries != 3 {
		t.Fatalf("%d entries, want the bound 3", st.Entries)
	}
}
