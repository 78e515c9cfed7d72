package dtree

import (
	"testing"

	"kifmm/internal/geom"
	"kifmm/internal/morton"
	"kifmm/internal/mpi"
)

// TestUsersMeetRankRanges checks the rule the hypercube reduction relies on:
// an octant has a user among ranks [kLo, kHi] exactly when its parent's
// colleague neighbourhood meets the union of those ranks' regions, the
// contiguous code interval [Start[kLo], End[kHi]].
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
		meets := func(k morton.Key, lo, hi morton.Code) bool {
			if k.Level() <= 1 {
				return true
			}
			for _, b := range append(k.Parent().NeighborsSameLevel(), k.Parent()) {
				blo, bhi := b.CodeRange()
				if morton.RangesOverlap(blo, bhi, lo, hi) {
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
					if want := meets(k, pt.Start[kLo], pt.End[kHi]); has != want {
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
	sc := morton.CodeOf(s)
	if morton.CompareCode(sc, morton.CodeOf(a)) <= 0 {
		t.Fatalf("boundary does not exclude the previous point")
	}
	if morton.CompareCode(sc, morton.CodeOf(b)) > 0 {
		t.Fatalf("boundary after the first point")
	}
	// Adjacent keys: boundary must equal the first key itself.
	n := morton.KeyFromCode(morton.CodeOf(a).Next())
	if got := coarsestBoundary(a, n); got != n {
		t.Fatalf("adjacent boundary should be the key itself")
	}
}
