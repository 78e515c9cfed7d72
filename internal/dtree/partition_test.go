package dtree

import (
	"math/rand"
	"slices"
	"testing"

	"kifmm/internal/geom"
	"kifmm/internal/morton"
	"kifmm/internal/mpi"
)

// TestUsersMeetRankRanges checks the rule the hypercube reduction relies on:
// an octant has a user among ranks [kLo, kHi] exactly when its parent's
// colleague neighbourhood meets the union of those ranks' regions, the
// half-open interval of finest-level cells from Start[kLo] up to
// Start[kHi+1] (to the cube's end for the last rank).
func TestUsersMeetRankRanges(t *testing.T) {
	const p = 8
	chunks := runDistributed(t, geom.Ellipsoid, 4000, p, 25)
	mpi.Run(p, func(c *mpi.Comm) {
		pt := NewPartition(c, chunks[c.Rank()])
		if c.Rank() != 0 {
			return
		}
		keys := map[morton.Key]bool{}
		for _, k := range gatherKeys(chunks) {
			for ; !keys[k]; k = k.Parent() {
				keys[k] = true
				if k.Level() == 0 {
					break
				}
			}
		}
		meets := func(k morton.Key, kLo, kHi int) bool {
			if k.Level() <= 1 {
				return true
			}
			for _, b := range append(k.Parent().NeighborsSameLevel(), k.Parent()) {
				if morton.Compare(b.LastDescendant(morton.MaxDepth), pt.Start[kLo]) >= 0 &&
					(kHi == p-1 || morton.Compare(b.FirstDescendant(morton.MaxDepth), pt.Start[kHi+1]) < 0) {
					return true
				}
			}
			return false
		}
		for k := range keys {
			users := pt.Users(k)
			for kLo := 0; kLo < p; kLo++ {
				for kHi := kLo; kHi < p; kHi++ {
					has := false
					for _, u := range users {
						has = has || (kLo <= u && u <= kHi)
					}
					if want := meets(k, kLo, kHi); has != want {
						t.Fatalf("%v ranks [%d, %d]: has user %v, region meets %v", k, kLo, kHi, has, want)
					}
				}
			}
		}
	})
}

func TestPartitionOwnerOf(t *testing.T) {
	const p = 4
	chunks := runDistributed(t, geom.Uniform, 2000, p, 25)
	mpi.Run(p, func(c *mpi.Comm) {
		pt := NewPartition(c, chunks[c.Rank()])
		// The owner of each of this rank's leaves' anchors is this rank.
		for _, l := range chunks[c.Rank()] {
			if o := pt.OwnerOf(l.Key); o != c.Rank() {
				t.Errorf("owner of %v = %d, want %d", l.Key, o, c.Rank())
				return
			}
		}
		// The root's anchor belongs to rank 0.
		if o := pt.OwnerOf(morton.Root()); o != 0 {
			t.Errorf("root anchor owner = %d", o)
		}
	})
}

func TestDistTreeAccessors(t *testing.T) {
	const p = 2
	chunks := runDistributed(t, geom.Uniform, 600, p, 20)
	mpi.Run(p, func(c *mpi.Comm) {
		dt := BuildLET(c, chunks[c.Rank()])
		want := 0
		for _, l := range dt.Leaves {
			want += len(l.Pts)
		}
		if dt.NumOwnedPoints() != want {
			t.Errorf("NumOwnedPoints = %d want %d", dt.NumOwnedPoints(), want)
		}
	})
}

func TestCoarsestBoundaryProperties(t *testing.T) {
	// The boundary must contain the first key, exclude the previous last,
	// and be the coarsest such cell.
	a := morton.FromPoint(0.3, 0.3, 0.3, morton.MaxDepth)
	b := morton.FromPoint(0.7, 0.7, 0.7, morton.MaxDepth)
	s := coarsestBoundary(a, b)
	if s.Level() != morton.MaxDepth {
		t.Fatalf("boundary must be a finest-level key")
	}
	if morton.Compare(s, a) <= 0 {
		t.Fatalf("boundary does not exclude the previous point")
	}
	if morton.Compare(s, b) > 0 {
		t.Fatalf("boundary after the first point")
	}
	// Adjacent cells: the boundary must be the first cell itself.
	parent := a.Parent()
	if got := coarsestBoundary(parent.Child(0), parent.Child(1)); got != parent.Child(1) {
		t.Fatalf("adjacent boundary should be the key itself, got %v", got)
	}
	// The coarsest boundary: a's last cell and b's first share only the
	// root, so the boundary is the first cell of the root's child holding b.
	if got, want := s, b.AncestorAt(1).FirstDescendant(morton.MaxDepth); got != want {
		t.Fatalf("boundary %v, want the coarsest %v", got, want)
	}
}

// TestPartitionMatchesLeafScan checks Contributors, Users and OwnerOf
// against a brute-force scan of each rank's owned leaves, on random
// distributed trees (uniform and ellipsoid clouds, 2, 3, 4 and 8 ranks,
// before and after a repartition by random weights, which moves the region
// boundaries off Points2Octree's blocks). A rank overlaps an octant when
// one of its leaves contains the octant or lies in it. The octants are
// random cells at every level and relatives of every rank's first and last
// leaf, where regions meet.
func TestPartitionMatchesLeafScan(t *testing.T) {
	for _, dist := range []geom.Distribution{geom.Uniform, geom.Ellipsoid} {
		for _, p := range []int{2, 3, 4, 8} {
			chunks := runDistributed(t, dist, 2400, p, 20)
			rng := rand.New(rand.NewSource(int64(p)))
			moved := make([][]Leaf, p)
			mpi.Run(p, func(c *mpi.Comm) {
				w := make([]int64, len(chunks[c.Rank()]))
				for i := range w {
					w[i] = 1 + int64(i*7919%13)
				}
				moved[c.Rank()] = RepartitionByWeight(c, chunks[c.Rank()], w)
			})
			for _, owned := range [][][]Leaf{chunks, moved} {
				checkPartitionAgainstScan(t, dist.String(), owned, rng)
			}
		}
	}
	rng := rand.New(rand.NewSource(1))
	for _, cut := range emptyRankCuts(t) {
		checkPartitionAgainstScan(t, cut.name, cut.owned, rng)
	}
}

func checkPartitionAgainstScan(t *testing.T, name string, owned [][]Leaf, rng *rand.Rand) {
	t.Helper()
	p := len(owned)
	parts := make([]*Partition, p)
	mpi.Run(p, func(c *mpi.Comm) { parts[c.Rank()] = NewPartition(c, owned[c.Rank()]) })
	pt := parts[0]
	scan := func(k morton.Key) []int { // the ranks with a leaf meeting k
		var out []int
		for r, ls := range owned {
			for _, l := range ls {
				if l.Key.Contains(k) || k.Contains(l.Key) {
					out = append(out, r)
					break
				}
			}
		}
		return out
	}
	var keys []morton.Key
	for l := 0; l <= morton.MaxDepth; l++ {
		for range 12 {
			keys = append(keys, morton.FromPoint(rng.Float64(), rng.Float64(), rng.Float64(), l))
		}
	}
	for _, ls := range owned {
		if len(ls) == 0 {
			continue
		}
		for _, edge := range []Leaf{ls[0], ls[len(ls)-1]} {
			for l := 0; l <= morton.MaxDepth; l += 3 {
				if l <= edge.Key.Level() {
					keys = append(keys, edge.Key.AncestorAt(l))
				} else {
					keys = append(keys, edge.Key.FirstDescendant(l), edge.Key.LastDescendant(l))
				}
			}
		}
	}
	for _, k := range keys {
		if got, want := pt.Contributors(k), scan(k); !slices.Equal(got, want) {
			t.Fatalf("%s p=%d: Contributors(%v) = %v, scan %v", name, p, k, got, want)
		}
		want := scan(morton.Root()) // the parent's neighbourhood is the cube
		if k.Level() > 1 {
			var users []int
			for _, b := range append(k.Parent().NeighborsSameLevel(), k.Parent()) {
				users = append(users, scan(b)...)
			}
			slices.Sort(users)
			want = slices.Compact(users)
		}
		if got := pt.Users(k); !slices.Equal(got, want) {
			t.Fatalf("%s p=%d: Users(%v) = %v, scan %v", name, p, k, got, want)
		}
		if got, want := pt.OwnerOf(k), scan(k.FirstDescendant(morton.MaxDepth)); len(want) != 1 || got != want[0] {
			t.Fatalf("%s p=%d: OwnerOf(%v) = %d, scan of its anchor cell %v", name, p, k, got, want)
		}
	}
}
