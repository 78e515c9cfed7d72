package dtree

import (
	"fmt"
	"slices"
	"sort"
	"testing"

	"kifmm/internal/geom"
	"kifmm/internal/morton"
	"kifmm/internal/mpi"
	"kifmm/internal/octree"
)

// runDistributed builds the distributed tree for n points of dist split
// across p ranks and returns each rank's leaves.
func runDistributed(t *testing.T, dist geom.Distribution, n, p, q int) [][]Leaf {
	t.Helper()
	out := make([][]Leaf, p)
	mpi.Run(p, func(c *mpi.Comm) {
		pts := geom.GenerateChunk(dist, n, 11, c.Rank(), p)
		out[c.Rank()] = Points2Octree(c, pts, nil, 0, q, 20, nil)
	})
	return out
}

func gatherKeys(chunks [][]Leaf) []morton.Key {
	var keys []morton.Key
	for _, ch := range chunks {
		for _, l := range ch {
			keys = append(keys, l.Key)
		}
	}
	return keys
}

// keysAreSorted reports whether keys are in nondecreasing Morton preorder.
func keysAreSorted(ks []morton.Key) bool {
	return slices.IsSortedFunc(ks, morton.Compare)
}

// isLinear reports whether the sorted keys are pairwise non-overlapping (no
// key is an ancestor of another).
func isLinear(ks []morton.Key) bool {
	for i := 0; i+1 < len(ks); i++ {
		if ks[i].Contains(ks[i+1]) {
			return false
		}
	}
	return true
}

func TestPoints2OctreeCompleteLinear(t *testing.T) {
	for _, p := range []int{1, 2, 4, 7} {
		chunks := runDistributed(t, geom.Ellipsoid, 2000, p, 25)
		keys := gatherKeys(chunks)
		if !keysAreSorted(keys) {
			t.Fatalf("p=%d: global leaf order not sorted", p)
		}
		if !isLinear(keys) {
			t.Fatalf("p=%d: leaves overlap", p)
		}
		if !morton.IsComplete(keys) {
			t.Fatalf("p=%d: leaves do not cover the cube", p)
		}
	}
}

func TestPoints2OctreePreservesPointsAndQ(t *testing.T) {
	const n, p, q = 3000, 4, 30
	chunks := runDistributed(t, geom.Uniform, n, p, q)
	total := 0
	for _, ch := range chunks {
		for _, l := range ch {
			total += len(l.Pts)
			if len(l.Pts) > q {
				t.Fatalf("leaf %v has %d > q points", l.Key, len(l.Pts))
			}
			for _, pt := range l.Pts {
				if !l.Key.ContainsPoint(pt.X, pt.Y, pt.Z) {
					t.Fatalf("point escapes leaf %v", l.Key)
				}
			}
		}
	}
	if total != n {
		t.Fatalf("points lost: %d of %d", total, n)
	}
}

func TestPoints2OctreeMatchesSingleRankTotals(t *testing.T) {
	// The distributed construction at p ranks must produce the same point
	// histogram no matter how many ranks are used (the trees may differ
	// near rank boundaries, but coverage and counts must agree).
	c1 := runDistributed(t, geom.Ellipsoid, 1500, 1, 20)
	c4 := runDistributed(t, geom.Ellipsoid, 1500, 4, 20)
	n1, n4 := 0, 0
	for _, l := range c1[0] {
		n1 += len(l.Pts)
	}
	for _, ch := range c4 {
		for _, l := range ch {
			n4 += len(l.Pts)
		}
	}
	if n1 != n4 || n1 != 1500 {
		t.Fatalf("point totals differ: %d vs %d", n1, n4)
	}
}

// TestPartitionTilesCodeSpace checks that the regions tile the cube's
// finest-level cells: Start[0] is the first cell, every other Start is the
// first cell of its rank's first leaf, and Start rises strictly, so every
// region is a non-empty half-open interval.
func TestPartitionTilesCodeSpace(t *testing.T) {
	const p = 4
	chunks := runDistributed(t, geom.Uniform, 1000, p, 25)
	mpi.Run(p, func(c *mpi.Comm) {
		pt := NewPartition(c, chunks[c.Rank()])
		if c.Rank() != 0 {
			return
		}
		if pt.Start[0] != morton.Root().FirstDescendant(morton.MaxDepth) {
			t.Errorf("partition must start at the cube's first cell, got %v", pt.Start[0])
		}
		for r := 1; r < p; r++ {
			if want := chunks[r][0].Key.FirstDescendant(morton.MaxDepth); pt.Start[r] != want {
				t.Errorf("region %d starts at %v, want %v", r, pt.Start[r], want)
			}
			if morton.Compare(pt.Start[r-1], pt.Start[r]) >= 0 {
				t.Errorf("regions %d and %d do not rise: %v, %v", r-1, r, pt.Start[r-1], pt.Start[r])
			}
		}
	})
}

func TestPartitionContributorsUsers(t *testing.T) {
	const p = 4
	chunks := runDistributed(t, geom.Uniform, 2000, p, 25)
	mpi.Run(p, func(c *mpi.Comm) {
		pt := NewPartition(c, chunks[c.Rank()])
		// Root overlaps everyone and everyone uses it.
		if got := pt.Contributors(morton.Root()); len(got) != p {
			t.Errorf("root contributors = %v", got)
		}
		if got := pt.Users(morton.Root().Child(0)); len(got) != p {
			t.Errorf("level-1 users = %v", got)
		}
		// Own leaves must list this rank as a contributor.
		for _, l := range chunks[c.Rank()] {
			found := false
			for _, k := range pt.Contributors(l.Key) {
				if k == c.Rank() {
					found = true
				}
			}
			if !found {
				t.Errorf("rank %d not a contributor of its own leaf %v", c.Rank(), l.Key)
				return
			}
		}
	})
}

func TestRepartitionByWeightBalances(t *testing.T) {
	const p = 4
	chunks := runDistributed(t, geom.Ellipsoid, 4000, p, 10)
	totals := make([]int64, p)
	var beforeKeys, afterKeys []morton.Key
	for _, ch := range chunks {
		for _, l := range ch {
			beforeKeys = append(beforeKeys, l.Key)
		}
	}
	after := make([][]Leaf, p)
	mpi.Run(p, func(c *mpi.Comm) {
		leaves := chunks[c.Rank()]
		w := make([]int64, len(leaves))
		for i, l := range leaves {
			w[i] = int64(len(l.Pts)*len(l.Pts) + 1)
		}
		out := RepartitionByWeight(c, leaves, w)
		after[c.Rank()] = out
		var tot int64
		for _, l := range out {
			tot += int64(len(l.Pts)*len(l.Pts) + 1)
		}
		totals[c.Rank()] = tot
	})
	for _, ch := range after {
		for _, l := range ch {
			afterKeys = append(afterKeys, l.Key)
		}
	}
	if len(afterKeys) != len(beforeKeys) {
		t.Fatalf("leaf count changed: %d vs %d", len(afterKeys), len(beforeKeys))
	}
	if !keysAreSorted(afterKeys) {
		t.Fatalf("repartition broke global order")
	}
	var mx, mn int64 = 0, 1 << 62
	for _, v := range totals {
		if v > mx {
			mx = v
		}
		if v < mn {
			mn = v
		}
	}
	if mn == 0 || float64(mx)/float64(mn) > 3.0 {
		t.Fatalf("weights badly balanced: %v", totals)
	}
}

// buildReference assembles the global tree from all leaves and builds all
// lists — the sequential ground truth for LET comparisons.
func buildReference(chunks [][]Leaf) *octree.Tree {
	var specs []octree.OctantSpec
	for _, ch := range chunks {
		for _, l := range ch {
			specs = append(specs, octree.OctantSpec{Key: l.Key, IsLeaf: true, Local: true, Points: l.Pts})
		}
	}
	ref := octree.Assemble(specs)
	ref.BuildLists(nil)
	return ref
}

func keySetOf(t *octree.Tree, list []int32) []string {
	out := make([]string, len(list))
	for i, j := range list {
		out[i] = t.Nodes[j].Key.String()
	}
	sort.Strings(out)
	return out
}

func sameKeySet(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestLETListsMatchGlobalTree(t *testing.T) {
	for _, cfg := range []struct {
		dist geom.Distribution
		n, p int
	}{
		{geom.Uniform, 1500, 4},
		{geom.Ellipsoid, 1500, 4},
		{geom.Ellipsoid, 1200, 8},
	} {
		name := fmt.Sprintf("%s n=%d p=%d", cfg.dist, cfg.n, cfg.p)
		checkLETs(t, name, runDistributed(t, cfg.dist, cfg.n, cfg.p, 15))
	}
}

// checkLETs builds every rank's LET of the distributed tree owned and checks
// it against the global tree: each LET is valid, and each of its local
// octants is in the global tree, with the same leaf flag and U, V, W and X
// lists. It returns the LETs.
func checkLETs(t *testing.T, name string, owned [][]Leaf) []*DistTree {
	t.Helper()
	ref := buildReference(owned)
	dts := make([]*DistTree, len(owned))
	mpi.Run(len(owned), func(c *mpi.Comm) {
		dt := BuildLET(c, owned[c.Rank()])
		dts[c.Rank()] = dt
		if err := dt.Tree.Validate(); err != nil {
			t.Errorf("%s rank %d: invalid LET: %v", name, c.Rank(), err)
			return
		}
		for i := range dt.Tree.Nodes {
			n := &dt.Tree.Nodes[i]
			if !n.Local {
				continue
			}
			ri, ok := ref.Index(n.Key)
			if !ok {
				t.Errorf("%s: local octant %v missing from reference", name, n.Key)
				return
			}
			rn := &ref.Nodes[ri]
			if n.IsLeaf != rn.IsLeaf {
				t.Errorf("%s: %v leaf flag mismatch", name, n.Key)
				return
			}
			for list, pair := range map[string][2][]int32{
				"U": {n.U, rn.U}, "V": {n.V, rn.V}, "W": {n.W, rn.W}, "X": {n.X, rn.X},
			} {
				got := keySetOf(dt.Tree, pair[0])
				want := keySetOf(ref, pair[1])
				if !sameKeySet(got, want) {
					t.Errorf("%s rank=%d: %s-list of %v differs:\n got %v\nwant %v",
						name, c.Rank(), list, n.Key, got, want)
					return
				}
			}
		}
	})
	return dts
}

func TestLETGhostLeavesCarryPoints(t *testing.T) {
	const p = 4
	chunks := runDistributed(t, geom.Uniform, 1200, p, 20)
	ref := buildReference(chunks)
	mpi.Run(p, func(c *mpi.Comm) {
		dt := BuildLET(c, chunks[c.Rank()])
		for i := range dt.Tree.Nodes {
			n := &dt.Tree.Nodes[i]
			if n.Local || !n.IsLeaf {
				continue
			}
			ri, ok := ref.Index(n.Key)
			if !ok {
				t.Errorf("ghost %v not in reference", n.Key)
				return
			}
			if n.NPoints() != ref.Nodes[ri].NPoints() {
				t.Errorf("ghost leaf %v has %d points, want %d",
					n.Key, n.NPoints(), ref.Nodes[ri].NPoints())
				return
			}
		}
	})
}

func TestLETSentLeavesMatchReceivedGhosts(t *testing.T) {
	const p = 4
	chunks := runDistributed(t, geom.Uniform, 1200, p, 20)
	dts := make([]*DistTree, p)
	mpi.Run(p, func(c *mpi.Comm) {
		dts[c.Rank()] = BuildLET(c, chunks[c.Rank()])
	})
	// Every ghost leaf in rank k's LET must appear in its owner's
	// SentLeaves[k].
	for k := 0; k < p; k++ {
		ghostLeaves := make(map[string]bool)
		for i := range dts[k].Tree.Nodes {
			n := &dts[k].Tree.Nodes[i]
			if !n.Local && n.IsLeaf {
				ghostLeaves[n.Key.String()] = true
			}
		}
		sentTo := make(map[string]bool)
		for owner := 0; owner < p; owner++ {
			if owner == k {
				continue
			}
			for _, idx := range dts[owner].SentLeaves[k] {
				sentTo[dts[owner].Tree.Nodes[idx].Key.String()] = true
			}
		}
		for g := range ghostLeaves {
			if !sentTo[g] {
				t.Fatalf("ghost %s in rank %d's LET has no sender", g, k)
			}
		}
	}
}

func TestSharedOctantsIncludeAncestorsSpanningRanks(t *testing.T) {
	const p = 4
	chunks := runDistributed(t, geom.Uniform, 1200, p, 20)
	mpi.Run(p, func(c *mpi.Comm) {
		dt := BuildLET(c, chunks[c.Rank()])
		shared := dt.SharedOctants()
		// The root always spans all ranks.
		rootSeen := false
		for _, i := range shared {
			if dt.Tree.Nodes[i].Key == morton.Root() {
				rootSeen = true
			}
		}
		if !rootSeen {
			t.Errorf("root missing from shared octants")
		}
	})
}

func TestWireRoundTrips(t *testing.T) {
	ls := []Leaf{
		{Key: morton.Root().Child(3), Pts: []geom.Point{{X: 0.6, Y: 0.7, Z: 0.2}}},
		{Key: morton.Root().Child(4).Child(1)},
	}
	got := decodeLeaves(encodeLeaves(ls))
	if len(got) != 2 || got[0].Key != ls[0].Key || len(got[0].Pts) != 1 ||
		got[0].Pts[0] != ls[0].Pts[0] || len(got[1].Pts) != 0 {
		t.Fatalf("leaf codec broken: %+v", got)
	}
	gs := []ghostOctant{
		{Key: morton.Root().Child(1), IsLeaf: true, Pts: []geom.Point{{X: 0.1, Y: 0.6, Z: 0.6}}},
		{Key: morton.Root(), IsLeaf: false},
	}
	gg := decodeGhosts(encodeGhosts(gs))
	if len(gg) != 2 || !gg[0].IsLeaf || gg[1].IsLeaf || gg[0].Pts[0] != gs[0].Pts[0] {
		t.Fatalf("ghost codec broken: %+v", gg)
	}
}

// emptyCut is a distributed tree that leaves some ranks without a leaf.
type emptyCut struct {
	name   string
	owned  [][]Leaf
	points int
	empty  []int // the ranks owning no leaf
}

// emptyRankCuts returns one distributed tree of each way a rank ends up
// empty: the sort sends all copies of a key to one rank, so 100 coincident
// points at 2 ranks all go to the last and leave rank 0 empty; a
// repartition of 1000 uniform points at 4 ranks in which rank 0's last leaf
// outweighs the rest puts that leaf alone on rank 1 and every later leaf on
// rank 3, leaving rank 2 empty; with the global last leaf heavy instead,
// every other leaf goes to rank 0 and the heavy one to rank 2, leaving
// ranks 1 and 3 empty;
// and a cloud of no point at 3 ranks is one root leaf on rank 0.
func emptyRankCuts(t *testing.T) []emptyCut {
	t.Helper()
	coincident := make([][]Leaf, 2)
	mpi.Run(2, func(c *mpi.Comm) {
		pts := make([]geom.Point, 50)
		for i := range pts {
			pts[i] = geom.Point{X: 0.3, Y: 0.6, Z: 0.2}
		}
		coincident[c.Rank()] = Points2Octree(c, pts, nil, 0, 20, 12, nil)
	})
	const p = 4
	chunks := runDistributed(t, geom.Uniform, 1000, p, 25)
	heavy := func(rank int) [][]Leaf {
		out := make([][]Leaf, p)
		mpi.Run(p, func(c *mpi.Comm) {
			w := make([]int64, len(chunks[c.Rank()]))
			for i := range w {
				w[i] = 1
			}
			if c.Rank() == rank {
				w[len(w)-1] = 1 << 40
			}
			out[c.Rank()] = RepartitionByWeight(c, chunks[c.Rank()], w)
		})
		return out
	}
	none := make([][]Leaf, 3)
	mpi.Run(3, func(c *mpi.Comm) { none[c.Rank()] = Points2Octree(c, nil, nil, 0, 20, 12, nil) })
	cuts := []emptyCut{
		{"coincident p=2", coincident, 100, []int{0}},
		{"heavy leaf of rank 0, p=4", heavy(0), 1000, []int{2}},
		{"heavy last leaf, p=4", heavy(p - 1), 1000, []int{1, 3}},
		{"no point, p=3", none, 0, []int{1, 2}},
	}
	for _, cut := range cuts {
		var empty []int
		for r, ls := range cut.owned {
			if len(ls) == 0 {
				empty = append(empty, r)
			}
		}
		if !slices.Equal(empty, cut.empty) {
			t.Fatalf("%s: ranks %v own no leaf, want %v", cut.name, empty, cut.empty)
		}
	}
	return cuts
}

// TestEmptyRanksBuildTrees: ranks left without points by the sort, or
// without leaves by a repartition, hold empty regions. The union of the
// leaves is still a complete linear octree holding every point once, every
// rank builds a LET whose local octants' lists match the global tree's, and
// an empty rank's LET has no local octant.
func TestEmptyRanksBuildTrees(t *testing.T) {
	for _, cut := range emptyRankCuts(t) {
		keys := gatherKeys(cut.owned)
		if !keysAreSorted(keys) || !isLinear(keys) || !morton.IsComplete(keys) {
			t.Fatalf("%s: the leaves are not a complete linear octree", cut.name)
		}
		total := 0
		for _, ls := range cut.owned {
			for _, l := range ls {
				total += len(l.Pts)
			}
		}
		if total != cut.points {
			t.Fatalf("%s: the leaves hold %d points, want %d", cut.name, total, cut.points)
		}
		dts := checkLETs(t, cut.name, cut.owned)
		for _, r := range cut.empty {
			for i := range dts[r].Tree.Nodes {
				if dts[r].Tree.Nodes[i].Local {
					t.Fatalf("%s: empty rank %d's LET has local octant %v", cut.name, r, dts[r].Tree.Nodes[i].Key)
				}
			}
		}
	}
}
