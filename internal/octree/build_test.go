package octree

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"kifmm/internal/geom"
	"kifmm/internal/morton"
)

// sameTree reports the first difference between a tree and its oracle:
// every node field (key, parent, children, IsLeaf, Local, point range, the
// four lists element for element), Leaves, Perm and Points bit for bit. It
// also requires every list to be capped at its length, so that an append
// to one node's list cannot write into the next one's.
func sameTree(got, want *Tree) error {
	if len(got.Nodes) != len(want.Nodes) {
		return fmt.Errorf("%d nodes, want %d", len(got.Nodes), len(want.Nodes))
	}
	for i := range got.Nodes {
		g, w := &got.Nodes[i], &want.Nodes[i]
		if g.Key != w.Key || g.Parent != w.Parent || g.Children != w.Children ||
			g.IsLeaf != w.IsLeaf || g.Local != w.Local || g.PtLo != w.PtLo || g.PtHi != w.PtHi {
			return fmt.Errorf("node %d: %+v, want %+v", i, *g, *w)
		}
		for _, l := range []struct {
			name      string
			got, want []int32
		}{{"U", g.U, w.U}, {"V", g.V, w.V}, {"W", g.W, w.W}, {"X", g.X, w.X}} {
			if !slices.Equal(l.got, l.want) {
				return fmt.Errorf("node %d (%v): %s %v, want %v", i, g.Key, l.name, l.got, l.want)
			}
			if cap(l.got) != len(l.got) {
				return fmt.Errorf("node %d: %s has cap %d past its length %d", i, l.name, cap(l.got), len(l.got))
			}
		}
	}
	if !slices.Equal(got.Leaves, want.Leaves) {
		return fmt.Errorf("leaves %v, want %v", got.Leaves, want.Leaves)
	}
	if !slices.Equal(got.Perm, want.Perm) {
		return fmt.Errorf("perm %v, want %v", got.Perm, want.Perm)
	}
	if len(got.Points) != len(want.Points) {
		return fmt.Errorf("%d points, want %d", len(got.Points), len(want.Points))
	}
	for i, p := range got.Points {
		q := want.Points[i]
		for _, c := range [][2]float64{{p.X, q.X}, {p.Y, q.Y}, {p.Z, q.Z}} {
			if math.Float64bits(c[0]) != math.Float64bits(c[1]) {
				return fmt.Errorf("point %d: %v, want %v", i, p, q)
			}
		}
	}
	return nil
}

// sameIndex checks Index against the oracle's key map on every node's key
// and on keys around each node that may or may not be in the tree: its
// children and its same-level neighbours.
func sameIndex(tr *Tree) error {
	m := oracleIndex(tr)
	check := func(k morton.Key) error {
		want, wantOK := m[k]
		if got, ok := tr.Index(k); ok != wantOK || (ok && got != want) {
			return fmt.Errorf("Index(%v) = %d, %v; want %d, %v", k, got, ok, want, wantOK)
		}
		return nil
	}
	for i := range tr.Nodes {
		k := tr.Nodes[i].Key
		keys := k.NeighborsSameLevel()
		if k.Level() < morton.MaxDepth {
			c := k.Children()
			keys = append(keys, c[:]...)
		}
		for _, key := range append(keys, k) {
			if err := check(key); err != nil {
				return err
			}
		}
	}
	return nil
}

// checkBuild compares Build and BuildLists with their oracles on one input,
// then Assemble on specs taken from the tree (see checkAssemble).
func checkBuild(t *testing.T, name string, pts []geom.Point, q, maxDepth int) {
	t.Helper()
	if err := buildMatchesOracle(pts, q, maxDepth); err != nil {
		t.Fatalf("%s (n %d, q %d, maxDepth %d): %v", name, len(pts), q, maxDepth, err)
	}
}

func buildMatchesOracle(pts []geom.Point, q, maxDepth int) error {
	got, want := Build(pts, q, maxDepth), oracleBuild(pts, q, maxDepth)
	if err := sameTree(got, want); err != nil {
		return fmt.Errorf("Build: %w", err)
	}
	got.BuildLists(nil)
	oracleBuildLists(want, nil)
	if err := sameTree(got, want); err != nil {
		return fmt.Errorf("BuildLists: %w", err)
	}
	if err := sameIndex(got); err != nil {
		return err
	}
	return checkAssemble(got, int64(len(pts)+31*q+maxDepth))
}

// checkAssemble assembles, with Assemble and its oracle, the specs of a
// local essential tree cut from tr: every leaf, with its points and a
// random Local flag, and a random third of the internal octants, all in a
// shuffled order. It compares the trees, their lists built for the Local
// octants, and Index.
func checkAssemble(tr *Tree, seed int64) error {
	rng := rand.New(rand.NewSource(seed))
	var specs []OctantSpec
	for i := range tr.Nodes {
		n := &tr.Nodes[i]
		if n.IsLeaf || rng.Intn(3) == 0 {
			specs = append(specs, OctantSpec{Key: n.Key, IsLeaf: n.IsLeaf, Local: rng.Intn(2) == 0, Points: tr.LeafPoints(int32(i))})
		}
	}
	rng.Shuffle(len(specs), func(i, j int) { specs[i], specs[j] = specs[j], specs[i] })
	got, want := Assemble(specs), oracleAssemble(specs)
	if err := sameTree(got, want); err != nil {
		return fmt.Errorf("Assemble: %w", err)
	}
	local := func(n *Node) bool { return n.Local }
	got.BuildLists(local)
	oracleBuildLists(want, local)
	if err := sameTree(got, want); err != nil {
		return fmt.Errorf("Assemble + BuildLists: %w", err)
	}
	if err := sameIndex(got); err != nil {
		return fmt.Errorf("Assemble: %w", err)
	}
	return nil
}

// edgePoints are points on the cube's faces and past them: at 0, at
// 1 − ulp (the last cell) and at or past 1 (clamped into the last cell).
func edgePoints() []geom.Point {
	below1 := math.Nextafter(1, 0)
	return []geom.Point{
		{X: 0, Y: 0, Z: 0}, {X: below1, Y: below1, Z: below1}, {X: 1, Y: 1, Z: 1},
		{X: 1.5, Y: -0.5, Z: below1}, {X: 0, Y: 1, Z: 0.5}, {X: below1, Y: 0, Z: 1},
		{X: 0.5, Y: 0.5, Z: 0.5}, {X: 0, Y: 0, Z: 0},
	}
}

// TestBuildMatchesOracle requires Build, BuildLists, Assemble and Index to
// reproduce the comparison-sort, map-indexed builders (oracle_test.go)
// exactly on uniform and ellipsoid clouds over every q and maxDepth below,
// on 0, 1 and 2 points, on clouds with more than q coincident points, and
// on points at the cube's faces and clamped onto them.
func TestBuildMatchesOracle(t *testing.T) {
	uniform := geom.Generate(geom.Uniform, 3000, 41)
	ellipsoid := geom.Generate(geom.Ellipsoid, 3000, 42)
	for _, q := range []int{0, 1, 50, 400} {
		for _, maxDepth := range []int{1, 3, 24, 30} {
			n := 3000
			if q <= 1 && maxDepth > 3 {
				n = 400 // every point ends in its own chain to maxDepth
			}
			checkBuild(t, "uniform", uniform[:n], q, maxDepth)
			checkBuild(t, "ellipsoid", ellipsoid[:n], q, maxDepth)
		}
	}
	for n := 0; n <= 2; n++ {
		for _, q := range []int{0, 1, 50} {
			for _, maxDepth := range []int{0, 1, 30} {
				checkBuild(t, "tiny", uniform[:n], q, maxDepth)
				checkBuild(t, "tiny edge", edgePoints()[:n], q, maxDepth)
			}
		}
	}
	coincident := slices.Clone(uniform[:200])
	for i := range 120 {
		coincident = append(coincident, uniform[7], uniform[i%5])
	}
	coincident = append(coincident, edgePoints()...)
	coincident = append(coincident, edgePoints()...)
	for _, q := range []int{0, 1, 50} {
		for _, maxDepth := range []int{3, 24, 30} {
			checkBuild(t, "coincident", coincident, q, maxDepth)
		}
	}
	for _, q := range []int{0, 1, 3} {
		checkBuild(t, "edge", edgePoints(), q, 30)
	}
}

// TestBuildTieOrder pins Build's order for points in one finest-level
// cell: Perm lists them by original index, in the cell's place in Morton
// order, whatever q and maxDepth cut the tree at.
func TestBuildTieOrder(t *testing.T) {
	a := geom.Point{X: 0.7, Y: 0.2, Z: 0.9}
	b := geom.Point{X: 0.1, Y: 0.1, Z: 0.1}   // before a in Morton order
	c := geom.Point{X: 0.75, Y: 0.25, Z: 0.9} // after a
	pts := []geom.Point{a, c, a, b, a, c, b, a}
	want := []int{3, 6, 0, 2, 4, 7, 1, 5}
	for _, q := range []int{0, 1, 2, 8} {
		for _, maxDepth := range []int{0, 2, 30} {
			if got := Build(pts, q, maxDepth).Perm; !slices.Equal(got, want) {
				t.Fatalf("q %d, maxDepth %d: Perm %v, want %v", q, maxDepth, got, want)
			}
		}
	}
	// The same rule on a cloud: consecutive points never go backwards in
	// the Morton order of their finest-level cells, nor in original index
	// within one cell.
	pts = geom.Generate(geom.Uniform, 2000, 43)
	for i := range 500 {
		pts = append(pts, pts[(i*37)%100])
	}
	tr := Build(pts, 16, 24)
	for i := 1; i < len(tr.Perm); i++ {
		p, q := tr.Points[i-1], tr.Points[i]
		c := morton.Compare(morton.FromPoint(p.X, p.Y, p.Z, morton.MaxDepth), morton.FromPoint(q.X, q.Y, q.Z, morton.MaxDepth))
		if c > 0 || (c == 0 && tr.Perm[i-1] > tr.Perm[i]) {
			t.Fatalf("Points %d and %d out of order: cells compare %d, original indices %d, %d", i-1, i, c, tr.Perm[i-1], tr.Perm[i])
		}
	}
}

// FuzzOctreeBuild runs buildMatchesOracle — Build, BuildLists, Index and
// Assemble against the oracle builders — on a small cloud decoded from the
// fuzz input, 12 bytes a point (a uint32 a coordinate, over 2³² so cells
// differ down to the finest level; the two largest values are 1 − ulp and
// 1, which clamps), at any q below 64 and any maxDepth. Repeated byte runs
// make coincident points. `make fuzz` runs it for 10 s.
func FuzzOctreeBuild(f *testing.F) {
	rng := rand.New(rand.NewSource(44))
	for _, n := range []int{0, 1, 2, 40, 200} {
		data := make([]byte, 12*n)
		rng.Read(data)
		f.Add(data, uint8(rng.Intn(8)), uint8(rng.Intn(31)))
	}
	dup := make([]byte, 12*30)
	for i := range dup {
		dup[i] = byte(i % 24) // two points, fifteen times each
	}
	f.Add(dup, uint8(3), uint8(30))
	f.Add([]byte{255, 255, 255, 255, 254, 255, 255, 255, 0, 0, 0, 0}, uint8(0), uint8(30))

	f.Fuzz(func(t *testing.T, data []byte, q, maxDepth uint8) {
		n := min(len(data)/12, 300)
		pts := make([]geom.Point, n)
		for i := range pts {
			pts[i] = geom.Point{X: fuzzCoord(data[12*i:]), Y: fuzzCoord(data[12*i+4:]), Z: fuzzCoord(data[12*i+8:])}
		}
		if err := buildMatchesOracle(pts, int(q%64), int(maxDepth)%(morton.MaxDepth+1)); err != nil {
			t.Fatal(err)
		}
	})
}

// fuzzCoord maps four bytes to a coordinate in [0, 1], 1 − ulp and 1 at
// the top.
func fuzzCoord(b []byte) float64 {
	switch u := binary.LittleEndian.Uint32(b); u {
	case math.MaxUint32:
		return 1
	case math.MaxUint32 - 1:
		return math.Nextafter(1, 0)
	default:
		return float64(u) / (1 << 32)
	}
}
