package dtree

import (
	"testing"

	"kifmm/internal/geom"
	"kifmm/internal/morton"
	"kifmm/internal/mpi"
)

func TestPartitionIntervalOfRanks(t *testing.T) {
	const p = 4
	chunks := runDistributed(t, geom.Uniform, 2000, p, 25)
	mpi.Run(p, func(c *mpi.Comm) {
		pt := NewPartition(c, chunks[c.Rank()])
		if c.Rank() != 0 {
			return
		}
		lo, hi, ok := pt.IntervalOfRanks(0, p-1)
		if !ok || lo != (morton.Code{}) || hi != morton.MaxCode() {
			t.Errorf("full interval should span the cube")
		}
		lo, hi, ok = pt.IntervalOfRanks(1, 2)
		if !ok {
			t.Errorf("middle interval missing")
		}
		if lo != pt.Start[1] || hi != pt.End[2] {
			t.Errorf("interval bounds wrong")
		}
		// Clamping.
		if _, _, ok := pt.IntervalOfRanks(-5, 100); !ok {
			t.Errorf("clamped interval should exist")
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
