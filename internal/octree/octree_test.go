package octree

import (
	"sort"
	"testing"

	"kifmm/internal/geom"
	"kifmm/internal/morton"
)

func buildUniform(t *testing.T, n, q int) *Tree {
	t.Helper()
	pts := geom.Generate(geom.Uniform, n, 1)
	tr := Build(pts, q, 20)
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestBuildRespectsQ(t *testing.T) {
	tr := buildUniform(t, 3000, 40)
	for _, li := range tr.Leaves {
		if tr.Nodes[li].NPoints() > 40 {
			t.Fatalf("leaf %v has %d > q points", tr.Nodes[li].Key, tr.Nodes[li].NPoints())
		}
	}
	// All points accounted for exactly once.
	var total int
	for _, li := range tr.Leaves {
		total += tr.Nodes[li].NPoints()
	}
	if total != 3000 {
		t.Fatalf("leaves hold %d points, want 3000", total)
	}
}

func TestBuildPermIsPermutation(t *testing.T) {
	pts := geom.Generate(geom.Ellipsoid, 500, 2)
	tr := Build(pts, 10, 20)
	seen := make([]bool, 500)
	for i, orig := range tr.Perm {
		if seen[orig] {
			t.Fatalf("original index %d repeated", orig)
		}
		seen[orig] = true
		if tr.Points[i] != pts[orig] {
			t.Fatalf("perm does not map points correctly at %d", i)
		}
	}
}

func TestBuildEmptyAndTiny(t *testing.T) {
	tr := Build(nil, 5, 10)
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(tr.Leaves) != 1 || tr.Nodes[0].Key != morton.Root() {
		t.Fatalf("empty build should give root leaf")
	}
	tr2 := Build([]geom.Point{{X: 0.5, Y: 0.5, Z: 0.5}}, 5, 10)
	if len(tr2.Leaves) != 1 || tr2.Nodes[tr2.Leaves[0]].NPoints() != 1 {
		t.Fatalf("single point should live in root leaf")
	}
}

func TestBuildMaxDepthCap(t *testing.T) {
	// Identical points cannot be separated: depth cap must stop subdivision.
	pts := make([]geom.Point, 20)
	for i := range pts {
		pts[i] = geom.Point{X: 0.3, Y: 0.3, Z: 0.3}
	}
	tr := Build(pts, 2, 4)
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := tr.MaxLevel(); got != 4 {
		t.Fatalf("depth cap ignored: max level %d", got)
	}
}

func TestEllipsoidTreeIsDeep(t *testing.T) {
	pts := geom.Generate(geom.Ellipsoid, 6000, 3)
	tr := Build(pts, 20, 24)
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	// The nonuniform distribution must produce a substantially deeper tree
	// than the uniform one at equal N and q (the paper's trees span 20+
	// levels).
	uni := Build(geom.Generate(geom.Uniform, 6000, 3), 20, 24)
	if tr.MaxLevel() <= uni.MaxLevel() {
		t.Fatalf("ellipsoid tree depth %d not deeper than uniform %d",
			tr.MaxLevel(), uni.MaxLevel())
	}
	if tr.MaxLevel()-tr.MinLeafLevel() < 3 {
		t.Fatalf("expected wide level span, got %d..%d", tr.MinLeafLevel(), tr.MaxLevel())
	}
}

func TestAssembleCreatesAncestors(t *testing.T) {
	k := morton.Root().Child(3).Child(5)
	tr := Assemble([]OctantSpec{
		{Key: k, IsLeaf: true, Points: []geom.Point{{X: 0.3, Y: 0.6, Z: 0.8}}},
		{Key: morton.Root().Child(0), IsLeaf: true},
	})
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	if _, ok := tr.Index(morton.Root().Child(3)); !ok {
		t.Fatalf("ancestor not created")
	}
	if _, ok := tr.Index(morton.Root()); !ok {
		t.Fatalf("root not created")
	}
	idx, _ := tr.Index(k)
	if !tr.Nodes[idx].IsLeaf || tr.Nodes[idx].NPoints() != 1 {
		t.Fatalf("leaf spec not honored")
	}
}

func TestAssembleRejectsDuplicates(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatalf("expected panic on duplicate spec")
		}
	}()
	k := morton.Root().Child(1)
	Assemble([]OctantSpec{{Key: k}, {Key: k}})
}

func TestPreorderInvariant(t *testing.T) {
	tr := buildUniform(t, 2000, 25)
	for i := 1; i < len(tr.Nodes); i++ {
		if morton.Compare(tr.Nodes[i-1].Key, tr.Nodes[i].Key) >= 0 {
			t.Fatalf("nodes not in Morton preorder at %d", i)
		}
	}
}

// naiveLists computes U/V/W/X straight from the Table I definitions by
// scanning all node pairs — O(n²), test-only ground truth.
func naiveLists(tr *Tree) (u, v, w, x [][]int32) {
	n := len(tr.Nodes)
	u = make([][]int32, n)
	v = make([][]int32, n)
	w = make([][]int32, n)
	x = make([][]int32, n)
	for bi := 0; bi < n; bi++ {
		b := &tr.Nodes[bi]
		for ai := 0; ai < n; ai++ {
			a := &tr.Nodes[ai]
			// U: both leaves, adjacent or equal.
			if b.IsLeaf && a.IsLeaf && (ai == bi || a.Key.Adjacent(b.Key)) {
				u[bi] = append(u[bi], int32(ai))
			}
			if ai == bi {
				continue
			}
			// V: same level, parents adjacent (or equal — impossible for
			// non-siblings), not adjacent to β.
			if b.Parent != NoNode && a.Parent != NoNode &&
				a.Key.Level() == b.Key.Level() &&
				tr.Nodes[a.Parent].Key.Adjacent(tr.Nodes[b.Parent].Key) &&
				!a.Key.Adjacent(b.Key) {
				v[bi] = append(v[bi], int32(ai))
			}
			// W: β leaf; α strict descendant of a colleague of β;
			// P(α) adjacent to β; α not adjacent to β.
			if b.IsLeaf && a.Key.Level() > b.Key.Level() && a.Parent != NoNode {
				colleague := a.Key.AncestorAt(b.Key.Level())
				if colleague.Adjacent(b.Key) &&
					tr.Nodes[a.Parent].Key.Adjacent(b.Key) &&
					!a.Key.Adjacent(b.Key) {
					w[bi] = append(w[bi], int32(ai))
				}
			}
		}
	}
	// X by duality.
	for bi := 0; bi < n; bi++ {
		for _, ai := range w[bi] {
			x[ai] = append(x[ai], int32(bi))
		}
	}
	return u, v, w, x
}

func sortedCopy(s []int32) []int32 {
	c := append([]int32{}, s...)
	sort.Slice(c, func(i, j int) bool { return c[i] < c[j] })
	return c
}

func equalSets(a, b []int32) bool {
	as, bs := sortedCopy(a), sortedCopy(b)
	if len(as) != len(bs) {
		return false
	}
	for i := range as {
		if as[i] != bs[i] {
			return false
		}
	}
	return true
}

func TestListsMatchNaiveDefinitions(t *testing.T) {
	for _, cfg := range []struct {
		dist geom.Distribution
		n, q int
	}{
		{geom.Uniform, 600, 10},
		{geom.Ellipsoid, 600, 10},
		{geom.Ellipsoid, 300, 4},
	} {
		pts := geom.Generate(cfg.dist, cfg.n, 7)
		tr := Build(pts, cfg.q, 20)
		tr.BuildLists(nil)
		nu, nv, nw, nx := naiveLists(tr)
		for i := range tr.Nodes {
			nd := &tr.Nodes[i]
			if !equalSets(nd.U, nu[i]) {
				t.Fatalf("%v n=%d q=%d: U mismatch at %v: got %v want %v",
					cfg.dist, cfg.n, cfg.q, nd.Key, nd.U, nu[i])
			}
			if !equalSets(nd.V, nv[i]) {
				t.Fatalf("%v: V mismatch at %v: got %v want %v", cfg.dist, nd.Key, nd.V, nv[i])
			}
			if !equalSets(nd.W, nw[i]) {
				t.Fatalf("%v: W mismatch at %v: got %v want %v", cfg.dist, nd.Key, nd.W, nw[i])
			}
			if !equalSets(nd.X, nx[i]) {
				t.Fatalf("%v: X mismatch at %v: got %v want %v", cfg.dist, nd.Key, nd.X, nx[i])
			}
		}
	}
}

// TestListSymmetries checks the list dualities the evaluation leans on — the
// U list's symmetry is what lets the near field serve both directions of a
// leaf pair at once — on an adaptive cloud, a uniform one, and one made of
// coincident points (every point repeated, one repeated past q, so leaves
// stop at the depth limit).
func TestListSymmetries(t *testing.T) {
	coincident := geom.Generate(geom.Uniform, 300, 13)
	for i := range 300 {
		coincident = append(coincident, coincident[i], coincident[i])
	}
	for range 40 {
		coincident = append(coincident, coincident[7])
	}
	for _, cloud := range []struct {
		name string
		pts  []geom.Point
		q    int
	}{
		{"ellipsoid", geom.Generate(geom.Ellipsoid, 1500, 12), 12},
		{"uniform", geom.Generate(geom.Uniform, 1500, 12), 12},
		{"coincident", coincident, 6},
	} {
		t.Run(cloud.name, func(t *testing.T) { checkListSymmetries(t, cloud.pts, cloud.q) })
	}
}

func checkListSymmetries(t *testing.T, pts []geom.Point, q int) {
	tr := Build(pts, q, 20)
	tr.BuildLists(nil)
	inList := func(lst []int32, j int32) bool {
		for _, v := range lst {
			if v == j {
				return true
			}
		}
		return false
	}
	for i := range tr.Nodes {
		n := &tr.Nodes[i]
		// U symmetric, each leaf named once.
		for k, j := range n.U {
			if !inList(tr.Nodes[j].U, int32(i)) {
				t.Fatalf("U not symmetric: %d in U(%d) but not vice versa", j, i)
			}
			if inList(n.U[:k], j) {
				t.Fatalf("U(%d) names %d twice", i, j)
			}
		}
		// V symmetric.
		for _, j := range n.V {
			if !inList(tr.Nodes[j].V, int32(i)) {
				t.Fatalf("V not symmetric: %d in V(%d) but not vice versa", j, i)
			}
		}
		// W/X duality.
		for _, j := range n.W {
			if !inList(tr.Nodes[j].X, int32(i)) {
				t.Fatalf("W/X duality broken: %d in W(%d) but %d not in X(%d)", j, i, i, j)
			}
		}
		for _, j := range n.X {
			if !inList(tr.Nodes[j].W, int32(i)) {
				t.Fatalf("X/W duality broken")
			}
		}
	}
}

func TestUniformDeepTreeHasEmptyWX(t *testing.T) {
	// A perfectly uniform refinement has no level jumps between adjacent
	// leaves, so W and X must be empty everywhere.
	var pts []geom.Point
	const g = 8
	for i := 0; i < g; i++ {
		for j := 0; j < g; j++ {
			for k := 0; k < g; k++ {
				pts = append(pts, geom.Point{
					X: (float64(i) + 0.5) / g,
					Y: (float64(j) + 0.5) / g,
					Z: (float64(k) + 0.5) / g,
				})
			}
		}
	}
	tr := Build(pts, 1, 3)
	tr.BuildLists(nil)
	for i := range tr.Nodes {
		n := &tr.Nodes[i]
		if len(n.W) != 0 || len(n.X) != 0 {
			t.Fatalf("uniform tree has nonempty W/X at %v", n.Key)
		}
		if n.IsLeaf && n.Key.Level() == 3 {
			// Interior leaves have exactly 27 U members; V at most 189.
			if len(n.U) > 27 || len(n.U) < 8 {
				t.Fatalf("U size out of range: %d", len(n.U))
			}
			if len(n.V) > 189 {
				t.Fatalf("V too large: %d", len(n.V))
			}
		}
	}
}

func TestBuildListsSelective(t *testing.T) {
	pts := geom.Generate(geom.Uniform, 800, 11)
	tr := Build(pts, 15, 20)
	target := tr.Leaves[len(tr.Leaves)/2]
	tr.BuildLists(func(n *Node) bool { return n.Key == tr.Nodes[target].Key })
	for i := range tr.Nodes {
		n := &tr.Nodes[i]
		if int32(i) == target {
			if len(n.U) == 0 {
				t.Fatalf("selected leaf has empty U")
			}
			continue
		}
		if len(n.U)+len(n.V)+len(n.W)+len(n.X) != 0 {
			t.Fatalf("unselected node %d has lists", i)
		}
	}
}
