package reduce

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"kifmm/internal/dtree"
	"kifmm/internal/geom"
	"kifmm/internal/morton"
	"kifmm/internal/mpi"
)

const vecLen = 4

// buildSetup constructs the distributed trees and per-rank contribution
// items: each rank contributes a deterministic pseudo-random partial for
// every shared octant it overlaps (its local octants).
func buildSetup(t *testing.T, dist geom.Distribution, n, p, q int) ([]*dtree.DistTree, [][]Item) {
	t.Helper()
	dts := make([]*dtree.DistTree, p)
	mpi.Run(p, func(c *mpi.Comm) {
		pts := geom.GenerateChunk(dist, n, 5, c.Rank(), p)
		dts[c.Rank()] = dtree.BuildLET(c, dtree.Points2Octree(c, pts, nil, 0, q, 20, nil))
	})
	items := make([][]Item, p)
	for r := 0; r < p; r++ {
		dt := dts[r]
		for _, i := range dt.SharedOctants() {
			node := &dt.Tree.Nodes[i]
			if !node.Local {
				continue // contribute only for octants overlapping Ω_r
			}
			u := make([]float64, vecLen)
			rng := rand.New(rand.NewSource(int64(r)*1000 + int64(i)))
			for x := range u {
				u[x] = rng.NormFloat64()
			}
			items[r] = append(items[r], Item{Key: node.Key, U: u})
		}
	}
	return dts, items
}

// serialSums computes the reference: global per-key sums of all partials.
func serialSums(items [][]Item) map[morton.Key][]float64 {
	out := make(map[morton.Key][]float64)
	for _, ranked := range items {
		for _, it := range ranked {
			u, ok := out[it.Key]
			if !ok {
				u = make([]float64, vecLen)
				out[it.Key] = u
			}
			for x := range it.U {
				u[x] += it.U[x]
			}
		}
	}
	return out
}

func checkComplete(t *testing.T, name string, dts []*dtree.DistTree, got [][]Item, want map[morton.Key][]float64) {
	t.Helper()
	for r := range dts {
		byKey := make(map[morton.Key][]float64)
		for _, it := range got[r] {
			byKey[it.Key] = it.U
		}
		// Every shared octant in rank r's LET must arrive with the full sum
		// (octants someone contributed to, at least).
		for _, i := range dts[r].SharedOctants() {
			key := dts[r].Tree.Nodes[i].Key
			ws, contributed := want[key]
			if !contributed {
				continue
			}
			gs, ok := byKey[key]
			if !ok {
				t.Fatalf("%s: rank %d missing shared octant %v", name, r, key)
			}
			for x := range ws {
				if math.Abs(gs[x]-ws[x]) > 1e-12*(1+math.Abs(ws[x])) {
					t.Fatalf("%s: rank %d octant %v component %d: got %v want %v",
						name, r, key, x, gs[x], ws[x])
				}
			}
		}
	}
}

func TestHypercubeMatchesSerialReduction(t *testing.T) {
	for _, cfg := range []struct {
		dist geom.Distribution
		n, p int
	}{
		{geom.Uniform, 1000, 2},
		{geom.Uniform, 1500, 4},
		{geom.Ellipsoid, 1500, 8},
	} {
		dts, items := buildSetup(t, cfg.dist, cfg.n, cfg.p, 20)
		want := serialSums(items)
		got := make([][]Item, cfg.p)
		mpi.Run(cfg.p, func(c *mpi.Comm) {
			out, _ := Hypercube(c, dts[c.Rank()].Part, items[c.Rank()], vecLen)
			got[c.Rank()] = out
		})
		checkComplete(t, "hypercube", dts, got, want)
	}
}

func TestOwnerMatchesSerialReduction(t *testing.T) {
	dts, items := buildSetup(t, geom.Ellipsoid, 1500, 4, 20)
	want := serialSums(items)
	got := make([][]Item, 4)
	mpi.Run(4, func(c *mpi.Comm) {
		out, _ := Owner(c, dts[c.Rank()].Part, items[c.Rank()], vecLen)
		got[c.Rank()] = out
	})
	checkComplete(t, "owner", dts, got, want)
}

func TestHypercubeAndOwnerAgree(t *testing.T) {
	dts, items := buildSetup(t, geom.Uniform, 1200, 4, 25)
	hc := make([][]Item, 4)
	ow := make([][]Item, 4)
	mpi.Run(4, func(c *mpi.Comm) {
		out, _ := Hypercube(c, dts[c.Rank()].Part, items[c.Rank()], vecLen)
		hc[c.Rank()] = out
	})
	mpi.Run(4, func(c *mpi.Comm) {
		out, _ := Owner(c, dts[c.Rank()].Part, items[c.Rank()], vecLen)
		ow[c.Rank()] = out
	})
	for r := 0; r < 4; r++ {
		hk := make(map[morton.Key][]float64)
		for _, it := range hc[r] {
			hk[it.Key] = it.U
		}
		for _, it := range ow[r] {
			if hu, ok := hk[it.Key]; ok {
				for x := range hu {
					if math.Abs(hu[x]-it.U[x]) > 1e-12 {
						t.Fatalf("rank %d octant %v: hypercube %v vs owner %v",
							r, it.Key, hu[x], it.U[x])
					}
				}
			}
		}
	}
}

func TestHypercubeRequiresPow2(t *testing.T) {
	mpi.Run(3, func(c *mpi.Comm) {
		defer func() {
			if recover() == nil {
				t.Errorf("expected panic for p=3")
			}
		}()
		Hypercube(c, nil, nil, 1)
	})
}

func TestHypercubeTrafficWithinPaperBound(t *testing.T) {
	// The paper proves per-rank octant traffic ≤ m(3√p − 2) where m bounds
	// the shared octants any rank uses or contributes.
	for _, p := range []int{4, 8, 16} {
		dts, items := buildSetup(t, geom.Uniform, 4000, p, 25)
		m := 0
		for r := 0; r < p; r++ {
			if len(dts[r].SharedOctants()) > m {
				m = len(dts[r].SharedOctants())
			}
			if len(items[r]) > m {
				m = len(items[r])
			}
		}
		stats := make([]Stats, p)
		mpi.Run(p, func(c *mpi.Comm) {
			_, st := Hypercube(c, dts[c.Rank()].Part, items[c.Rank()], vecLen)
			stats[c.Rank()] = st
		})
		bound := Bound(m, p)
		for r, st := range stats {
			if float64(st.OctantsSentTotal) > bound {
				t.Fatalf("p=%d rank %d: sent %d octants > bound %.0f (m=%d)",
					p, r, st.OctantsSentTotal, bound, m)
			}
		}
	}
}

func TestHypercubeScalesBetterThanOwnerFanout(t *testing.T) {
	// The owner scheme's worst rank sends O(p) messages' worth of octants
	// for near-root octants; the hypercube scheme's per-round message count
	// is exactly log p.
	const p = 16
	dts, items := buildSetup(t, geom.Uniform, 4000, p, 25)
	var hcMsgs, owMsgs int
	mpi.Run(p, func(c *mpi.Comm) {
		_, st := Hypercube(c, dts[c.Rank()].Part, items[c.Rank()], vecLen)
		if c.Rank() == 0 {
			hcMsgs = st.MessagesSent
		}
	})
	mpi.Run(p, func(c *mpi.Comm) {
		_, st := Owner(c, dts[c.Rank()].Part, items[c.Rank()], vecLen)
		if c.Rank() == dts[0].Part.OwnerOf(morton.Root()) {
			owMsgs = st.MessagesSent
		}
	})
	if hcMsgs != 4 { // log2(16)
		t.Fatalf("hypercube rounds = %d, want log p = 4", hcMsgs)
	}
	// The root's owner must message nearly all ranks.
	if owMsgs < p-2 {
		t.Fatalf("owner fan-out unexpectedly small: %d", owMsgs)
	}
}

func TestItemCodecRoundTrip(t *testing.T) {
	items := []Item{
		{Key: morton.Root().Child(2), U: []float64{1, 2, 3, 4}},
		{Key: morton.Root(), U: []float64{-1, 0.5, 0, 9}},
	}
	got := decodeItems(encodeItems(items, 4), 4)
	if len(got) != 2 {
		t.Fatalf("wrong count")
	}
	sort.Slice(got, func(i, j int) bool { return morton.Compare(got[i].Key, got[j].Key) < 0 })
	sort.Slice(items, func(i, j int) bool { return morton.Compare(items[i].Key, items[j].Key) < 0 })
	for i := range items {
		if got[i].Key != items[i].Key {
			t.Fatalf("key mismatch")
		}
		for x := range items[i].U {
			if got[i].U[x] != items[i].U[x] {
				t.Fatalf("value mismatch")
			}
		}
	}
}
