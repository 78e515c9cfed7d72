package octree

import (
	"testing"

	"kifmm/internal/geom"
)

func TestBuildUniformAllLeavesOneLevel(t *testing.T) {
	pts := geom.Generate(geom.Uniform, 3000, 5)
	tr := Build(pts, 0, 3)
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, li := range tr.Leaves {
		n := &tr.Nodes[li]
		if n.Key.Level() != 3 {
			t.Fatalf("leaf at level %d, want 3", n.Key.Level())
		}
		total += n.NPoints()
	}
	if total != 3000 {
		t.Fatalf("points lost: %d", total)
	}
	tr.BuildLists(nil)
	for i := range tr.Nodes {
		if len(tr.Nodes[i].W) != 0 || len(tr.Nodes[i].X) != 0 {
			t.Fatalf("uniform-depth tree must have empty W/X lists")
		}
	}
}

func TestBuildUniformMatchesNaiveLists(t *testing.T) {
	pts := geom.Generate(geom.Uniform, 500, 6)
	tr := Build(pts, 0, 2)
	tr.BuildLists(nil)
	nu, nv, nw, nx := naiveLists(tr)
	for i := range tr.Nodes {
		n := &tr.Nodes[i]
		if !equalSets(n.U, nu[i]) || !equalSets(n.V, nv[i]) ||
			!equalSets(n.W, nw[i]) || !equalSets(n.X, nx[i]) {
			t.Fatalf("uniform tree lists differ from naive at %v", n.Key)
		}
	}
}

func TestBuildUniformEmpty(t *testing.T) {
	tr := Build(nil, 0, 4)
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(tr.Leaves) != 1 {
		t.Fatalf("empty uniform tree should be a root leaf")
	}
}
