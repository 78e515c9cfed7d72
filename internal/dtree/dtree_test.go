package dtree

import (
	"slices"
	"sort"
	"strings"
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
		out[c.Rank()] = must(Points2Octree(c, pts, nil, 0, q, 20, nil))
	})
	return out
}

// must unwraps a collective set-up the test's input cannot fail (every rank
// gets points and leaves); an error is a bug, raised where it happens.
func must[T any](v T, err error) T {
	if err != nil {
		panic(err)
	}
	return v
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
		pt := must(NewPartition(c, chunks[c.Rank()]))
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
		pt := must(NewPartition(c, chunks[c.Rank()]))
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
		chunks := runDistributed(t, cfg.dist, cfg.n, cfg.p, 15)
		ref := buildReference(chunks)
		mpi.Run(cfg.p, func(c *mpi.Comm) {
			dt := must(BuildLET(c, chunks[c.Rank()]))
			if err := dt.Tree.Validate(); err != nil {
				t.Errorf("rank %d: invalid LET: %v", c.Rank(), err)
				return
			}
			for i := range dt.Tree.Nodes {
				n := &dt.Tree.Nodes[i]
				if !n.Local {
					continue
				}
				ri, ok := ref.Index(n.Key)
				if !ok {
					t.Errorf("local octant %v missing from reference", n.Key)
					return
				}
				rn := &ref.Nodes[ri]
				if n.IsLeaf != rn.IsLeaf {
					t.Errorf("%v leaf flag mismatch", n.Key)
					return
				}
				for name, pair := range map[string][2][]int32{
					"U": {n.U, rn.U}, "V": {n.V, rn.V}, "W": {n.W, rn.W}, "X": {n.X, rn.X},
				} {
					got := keySetOf(dt.Tree, pair[0])
					want := keySetOf(ref, pair[1])
					if !sameKeySet(got, want) {
						t.Errorf("%s/%s n=%d p=%d rank=%d: %s-list of %v differs:\n got %v\nwant %v",
							cfg.dist, name, cfg.n, cfg.p, c.Rank(), name, n.Key, got, want)
						return
					}
				}
			}
		})
	}
}

func TestLETGhostLeavesCarryPoints(t *testing.T) {
	const p = 4
	chunks := runDistributed(t, geom.Uniform, 1200, p, 20)
	ref := buildReference(chunks)
	mpi.Run(p, func(c *mpi.Comm) {
		dt := must(BuildLET(c, chunks[c.Rank()]))
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
		dts[c.Rank()] = must(BuildLET(c, chunks[c.Rank()]))
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
		dt := must(BuildLET(c, chunks[c.Rank()]))
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

// TestEmptyRankErrors: a cloud with fewer distinct cells than ranks leaves a
// rank without points after the sort, and a repartition whose one leaf
// outweighs the rest leaves a rank without leaves. Either way every rank
// returns the same error, and none panics or hangs.
func TestEmptyRankErrors(t *testing.T) {
	errs := make([]error, 2)
	mpi.Run(2, func(c *mpi.Comm) {
		pts := make([]geom.Point, 100)
		for i := range pts {
			pts[i] = geom.Point{X: 0.3, Y: 0.6, Z: 0.2}
		}
		_, errs[c.Rank()] = Points2Octree(c, pts, nil, 0, 20, 12, nil)
	})
	checkSameError(t, errs, "holds no point")

	const p = 4
	chunks := runDistributed(t, geom.Uniform, 1000, p, 25)
	errs = make([]error, p)
	mpi.Run(p, func(c *mpi.Comm) {
		w := make([]int64, len(chunks[c.Rank()]))
		for i := range w {
			w[i] = 1
		}
		if c.Rank() == 0 {
			w[len(w)-1] = 1 << 40 // its weight midpoint lands in rank 2's share
		}
		_, errs[c.Rank()] = BuildLET(c, RepartitionByWeight(c, chunks[c.Rank()], w))
	})
	checkSameError(t, errs, "owns no leaf")
}

// checkSameError fails t unless every rank returned the same error and it
// says what.
func checkSameError(t *testing.T, errs []error, what string) {
	t.Helper()
	for r, err := range errs {
		if err == nil || err.Error() != errs[0].Error() || !strings.Contains(err.Error(), what) {
			t.Fatalf("rank %d: error %v, rank 0: %v; want one error on every rank saying %q", r, err, errs[0], what)
		}
	}
}
