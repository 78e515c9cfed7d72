package kifmm

import (
	"fmt"
	"math/rand"
	"testing"

	"kifmm/internal/geom"
	"kifmm/internal/kernel"
	"kifmm/internal/morton"
	"kifmm/internal/octree"
	"kifmm/internal/sched"
)

// newTestEngine builds tree + engine for one configuration.
func newTestEngine(t *testing.T, kern kernel.Kernel, dist geom.Distribution, n, q int, useFFT bool, workers int) *Engine {
	t.Helper()
	pts := geom.Generate(dist, n, 42)
	tr := octree.Build(pts, q, 20)
	tr.BuildLists(nil)
	ops := NewOperators(kern, 4, 1e-9)
	e := NewEngine(ops, tr)
	e.UseFFTM2L = useFFT
	e.Workers = workers
	den := randDensities(rand.New(rand.NewSource(7)), n, kern.SrcDim())
	e.SetPointDensities(den)
	return e
}

// bitIdentical fails unless every element of got equals want exactly.
func bitIdentical(t *testing.T, label string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d vs %d", label, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s: element %d differs: %v vs %v (not bit-identical)", label, i, got[i], want[i])
		}
	}
}

// graphWorkers are the worker counts every oracle ≡ graph test runs.
var graphWorkers = []int{1, 2, 4}

// sameState fails unless two engines hold bit-identical potentials and
// per-node U, D and DChk.
func sameState(t *testing.T, label string, got, want *Engine) {
	t.Helper()
	bitIdentical(t, label+" Potential", got.Potential, want.Potential)
	for i := range want.U {
		bitIdentical(t, label+" U", got.U[i], want.U[i])
		bitIdentical(t, label+" D", got.D[i], want.D[i])
		bitIdentical(t, label+" DChk", got.DChk[i], want.DChk[i])
	}
}

// TestEvaluateDAGBitIdentical is the differential oracle: the task graph must
// reproduce the sequential walk of the phase table (oracle) bit for bit —
// same per-octant bodies, same accumulation order — across distributions,
// translation modes and kernels, at 1, 2 and 4 workers in every case.
func TestEvaluateDAGBitIdentical(t *testing.T) {
	cases := []struct {
		name   string
		kern   kernel.Kernel
		dist   geom.Distribution
		n, q   int
		useFFT bool
	}{
		// The /wN suffixes are the cases' names from when each ran at one
		// worker count; every case now runs at all of graphWorkers.
		{"laplace/uniform/dense/w1", kernel.Laplace{}, geom.Uniform, 700, 15, false},
		{"laplace/uniform/dense/w4", kernel.Laplace{}, geom.Uniform, 700, 30, false},
		{"laplace/uniform/fft/w4", kernel.Laplace{}, geom.Uniform, 700, 30, true},
		{"laplace/ellipsoid/dense/w4", kernel.Laplace{}, geom.Ellipsoid, 900, 8, false},
		{"laplace/ellipsoid/fft/w4", kernel.Laplace{}, geom.Ellipsoid, 900, 8, true},
		{"stokes/ellipsoid/dense/w4", kernel.Stokes{}, geom.Ellipsoid, 400, 12, false},
		{"yukawa/ellipsoid/fft/w4", kernel.Yukawa{Lambda: 5}, geom.Ellipsoid, 500, 10, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			oracle := newTestEngine(t, tc.kern, tc.dist, tc.n, tc.q, tc.useFFT, 1)
			oracle.oracle()
			for _, workers := range graphWorkers {
				dag := newTestEngine(t, tc.kern, tc.dist, tc.n, tc.q, tc.useFFT, workers)
				st, err := dag.EvaluateDAG(nil)
				if err != nil {
					t.Fatal(err)
				}
				if st.Tasks == 0 {
					t.Fatal("DAG ran no tasks")
				}
				sameState(t, fmt.Sprintf("graph w%d vs oracle", workers), dag, oracle)
			}
		})
	}
}

// sessionEditedTree builds a tree over pts and edits it the way a
// moving-points session does (internal/session): every third leaf of two or
// more points splits into appended children, every other sibling set of
// leaves merges into its parent (the children stay as Dead tombstones), a few
// points move into absent octants of internal nodes, so one new leaf joins
// siblings it is not contiguous with in node order, the lists near every edit
// are patched in place, and the points are repacked leaf by leaf in node
// order. pts is updated for the moved points.
func sessionEditedTree(pts []geom.Point, q int) *octree.Tree {
	tr := octree.Build(pts, q, 20)
	tr.BuildLists(nil)
	members := make([][]int, len(tr.Nodes))
	for _, li := range tr.Leaves {
		for p := tr.Nodes[li].PtLo; p < tr.Nodes[li].PtHi; p++ {
			members[li] = append(members[li], tr.Perm[p])
		}
	}
	var sites []morton.Key
	built := int32(len(tr.Nodes))
	split := make([]bool, built)
	for i := int32(0); i < built; i++ {
		if !tr.Nodes[i].IsLeaf || len(members[i]) < 2 || i%3 != 0 {
			continue
		}
		key := tr.Nodes[i].Key
		var buckets [8][]int
		for _, id := range members[i] {
			ci := key.ChildContaining(pts[id].X, pts[id].Y, pts[id].Z)
			buckets[ci] = append(buckets[ci], id)
		}
		members[i] = nil
		tr.Nodes[i].IsLeaf = false
		split[i] = true
		sites = append(sites, key)
		for ci, ids := range buckets {
			if len(ids) > 0 {
				c := tr.AddChild(i, ci)
				tr.Nodes[c].IsLeaf = true
				members = append(members, ids)
			}
		}
	}
	merges := 0
	for i := built - 1; i >= 0; i-- {
		n := &tr.Nodes[i]
		if n.IsLeaf || split[i] {
			continue
		}
		leaves := true
		for _, c := range n.Children {
			leaves = leaves && (c == octree.NoNode || tr.Nodes[c].IsLeaf)
		}
		if !leaves {
			continue
		}
		if merges++; merges%2 == 0 {
			continue
		}
		for _, c := range n.Children {
			if c != octree.NoNode {
				members[i] = append(members[i], members[c]...)
				members[c] = nil
				tr.Kill(c)
			}
		}
		n.IsLeaf = true
		sites = append(sites, n.Key)
	}
	inserts, donor := 0, int32(0)
	for i := int32(0); i < built && inserts < 4; i++ {
		n := &tr.Nodes[i]
		if n.Dead || n.IsLeaf || split[i] {
			continue
		}
		for ci, c := range n.Children {
			if c != octree.NoNode {
				continue
			}
			for len(members[donor]) < 2 {
				donor++
			}
			id := members[donor][0]
			members[donor] = members[donor][1:]
			x, y, z := n.Key.Child(ci).Center()
			pts[id] = geom.Point{X: x, Y: y, Z: z}
			leaf := tr.AddChild(i, ci)
			tr.Nodes[leaf].IsLeaf = true
			members = append(members, []int{id})
			sites = append(sites, n.Key)
			inserts++
			break
		}
	}
	tr.RebuildLeaves()
	near := func(k morton.Key) bool {
		for _, f := range sites {
			if morton.BlockOverlaps(f, k) {
				return true
			}
		}
		return false
	}
	tr.PatchLists(func(i int32) bool {
		n := &tr.Nodes[i]
		return near(n.Key) || (n.Parent != octree.NoNode && near(tr.Nodes[n.Parent].Key))
	})
	var packed []geom.Point
	var perm []int
	for i := range tr.Nodes {
		n := &tr.Nodes[i]
		n.PtLo, n.PtHi = int32(len(packed)), int32(len(packed))
		if n.Dead || !n.IsLeaf {
			n.PtLo, n.PtHi = 0, 0
			continue
		}
		for _, id := range members[i] {
			packed = append(packed, pts[id])
			perm = append(perm, id)
		}
		n.PtHi = int32(len(packed))
	}
	tr.Points, tr.Perm = packed, perm
	return tr
}

// TestEditedTreeBitIdentical is the differential oracle on a tree edited the
// way sessions edit theirs: appended octants out of Morton order, Dead
// tombstones, patched lists, and a sibling set split across node order — so
// the graph's Morton-ordered sibling groups and the oracle's node-order runs
// cut the FFT V row differently. The graph must still reproduce the oracle bit
// for bit at 1, 2 and 4 workers, with FFT and dense M2L.
func TestEditedTreeBitIdentical(t *testing.T) {
	cases := []struct {
		name   string
		kern   kernel.Kernel
		dist   geom.Distribution
		n, q   int
		useFFT bool
	}{
		{"laplace/uniform/fft", kernel.Laplace{}, geom.Uniform, 1500, 12, true},
		{"laplace/uniform/dense", kernel.Laplace{}, geom.Uniform, 1500, 12, false},
		{"laplace/ellipsoid/fft", kernel.Laplace{}, geom.Ellipsoid, 1200, 8, true},
		{"stokes/ellipsoid/dense", kernel.Stokes{}, geom.Ellipsoid, 600, 10, false},
		{"stokes/uniform/fft", kernel.Stokes{}, geom.Uniform, 600, 10, true},
		{"yukawa/ellipsoid/fft", kernel.Yukawa{Lambda: 5}, geom.Ellipsoid, 800, 8, true},
		{"yukawa/uniform/dense", kernel.Yukawa{Lambda: 5}, geom.Uniform, 800, 8, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			pts := geom.Generate(tc.dist, tc.n, 42)
			tr := sessionEditedTree(pts, tc.q)
			if err := tr.Validate(); err != nil {
				t.Fatal(err)
			}
			if tr.NumDead() == 0 {
				t.Fatal("the edits left no tombstone")
			}
			ops := NewOperators(tc.kern, 4, 1e-9)
			den := randDensities(rand.New(rand.NewSource(7)), tc.n, tc.kern.SrcDim())
			mk := func(workers int) *Engine {
				e := NewEngine(ops, tr)
				e.UseFFTM2L = tc.useFFT
				e.Workers = workers
				e.SetPointDensities(den)
				return e
			}
			oracle := mk(1)
			// The V row must hold a sibling set that node order splits in two.
			parents, runs := map[int32]bool{}, 0
			for _, level := range oracle.work(&phases[pVLI]) {
				for k, i := range level {
					parents[tr.Nodes[i].Parent] = true
					if k == 0 || tr.Nodes[i].Parent != tr.Nodes[level[k-1]].Parent {
						runs++
					}
				}
			}
			if runs <= len(parents) {
				t.Fatalf("every sibling set of the V row is contiguous in node order (%d runs, %d parents)", runs, len(parents))
			}
			oracle.oracle()
			for _, workers := range graphWorkers {
				dag := mk(workers)
				if _, err := dag.EvaluateDAG(nil); err != nil {
					t.Fatal(err)
				}
				sameState(t, fmt.Sprintf("graph w%d vs oracle", workers), dag, oracle)
			}
		})
	}
}

// TestEvaluateDAGRepeatable: with a fixed density vector, repeated DAG
// evaluations (arbitrary interleavings) must stay bit-identical — the
// determinism claim of DESIGN.md §7.2.
func TestEvaluateDAGRepeatable(t *testing.T) {
	e := newTestEngine(t, kernel.Laplace{}, geom.Ellipsoid, 800, 10, true, 4)
	if _, err := e.EvaluateDAG(nil); err != nil {
		t.Fatal(err)
	}
	first := append([]float64(nil), e.Potential...)
	for trial := 0; trial < 3; trial++ {
		e.Reset()
		if _, err := e.EvaluateDAG(nil); err != nil {
			t.Fatal(err)
		}
		bitIdentical(t, "repeat", e.Potential, first)
	}
}

// TestEvaluateDAGTrace checks that tracing records one event per task.
func TestEvaluateDAGTrace(t *testing.T) {
	e := newTestEngine(t, kernel.Laplace{}, geom.Uniform, 500, 25, false, 2)
	tr := sched.NewTrace()
	st, err := e.EvaluateDAG(tr)
	if err != nil {
		t.Fatal(err)
	}
	if int64(tr.Events()) != st.Tasks {
		t.Fatalf("trace has %d events for %d tasks", tr.Events(), st.Tasks)
	}
}

// TestEvaluateDAGStats sanity-checks the scheduler stats surface.
func TestEvaluateDAGStats(t *testing.T) {
	e := newTestEngine(t, kernel.Laplace{}, geom.Ellipsoid, 800, 10, false, 4)
	st, err := e.EvaluateDAG(nil)
	if err != nil {
		t.Fatal(err)
	}
	if st.Tasks <= int64(len(e.Tree.Leaves)) {
		t.Fatalf("implausibly few tasks: %d for %d leaves", st.Tasks, len(e.Tree.Leaves))
	}
	if len(st.PerWorker) != 4 {
		t.Fatalf("want 4 worker rows, got %d", len(st.PerWorker))
	}
	var sum int64
	for _, ws := range st.PerWorker {
		sum += ws.Tasks
	}
	if sum != st.Tasks {
		t.Fatalf("per-worker tasks %d != total %d", sum, st.Tasks)
	}
}
