package kifmm

import (
	"testing"

	"kifmm/internal/geom"
	"kifmm/internal/kernel"
	"kifmm/internal/octree"
)

// TestLayoutMatchesTree checks the streaming layout against the structures
// it replaces: SoA point panels against Tree.Points, and the per-level
// surface fills against the per-call SurfaceGrid.Points allocations, for
// every node and both radii. Bitwise equality is required — the panel
// bodies must see exactly the coordinates the pairwise bodies saw.
func TestLayoutMatchesTree(t *testing.T) {
	pts := geom.Generate(geom.Ellipsoid, 4000, 5)
	tree := octree.Build(pts, 40, 10)
	tree.BuildLists(nil)
	ops := NewOperators(kernel.Laplace{}, 4, 1e-9)
	l := NewLayout(tree, ops, true)

	for i, p := range tree.Points {
		if l.PX[i] != p.X || l.PY[i] != p.Y || l.PZ[i] != p.Z {
			t.Fatalf("point %d: layout (%v,%v,%v) != tree %v", i, l.PX[i], l.PY[i], l.PZ[i], p)
		}
		if l.X32[i] != float32(p.X) || l.Y32[i] != float32(p.Y) || l.Z32[i] != float32(p.Z) {
			t.Fatalf("point %d: float32 mirror mismatch", i)
		}
	}

	ns := l.NumSurf()
	if ns != ops.NumSurf() {
		t.Fatalf("NumSurf = %d, want %d", ns, ops.NumSurf())
	}
	sx := make([]float64, ns)
	sy := make([]float64, ns)
	sz := make([]float64, ns)
	check := func(i int32, fill func(int32, []float64, []float64, []float64), rad float64, name string) {
		fill(i, sx, sy, sz)
		c, half := nodeCenterHalf(tree, i)
		want := ops.Grid.Points(c, rad*half)
		for k, w := range want {
			if sx[k] != w.X || sy[k] != w.Y || sz[k] != w.Z {
				t.Fatalf("node %d %s surface point %d: (%v,%v,%v) != %v",
					i, name, k, sx[k], sy[k], sz[k], w)
			}
		}
	}
	for i := range tree.Nodes {
		check(int32(i), l.InnerSurf, RadInner, "inner")
		check(int32(i), l.OuterSurf, RadOuter, "outer")
	}
}

// nodeCenterHalf recomputes a node's center and half-side from its Morton
// key, independently of the layout under test.
func nodeCenterHalf(tree *octree.Tree, i int32) (geom.Point, float64) {
	k := tree.Nodes[i].Key
	x, y, z := k.Center()
	return geom.Point{X: x, Y: y, Z: z}, k.Side() / 2
}

// TestLayoutMirrorGating checks that the float32 coordinate mirrors exist
// exactly when a single-precision consumer asked for them.
func TestLayoutMirrorGating(t *testing.T) {
	pts := geom.Generate(geom.Uniform, 2000, 9)
	tree := octree.Build(pts, 40, 10)
	tree.BuildLists(nil)
	ops := NewOperators(kernel.Laplace{}, 4, 1e-9)

	bare := NewLayout(tree, ops, false)
	if len(bare.X32) != 0 || len(bare.Y32) != 0 || len(bare.Z32) != 0 {
		t.Fatalf("f32=false layout built mirrors (len %d)", len(bare.X32))
	}

	full := NewLayout(tree, ops, true)
	if len(full.X32) != len(tree.Points) {
		t.Fatalf("f32=true layout missing mirrors: len=%d", len(full.X32))
	}
	if got, want := full.MemoryBytes()-bare.MemoryBytes(), int64(12*len(tree.Points)); got != want {
		t.Fatalf("mirrors account for %d bytes, want %d", got, want)
	}
}
