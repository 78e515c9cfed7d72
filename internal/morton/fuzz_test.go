package morton

import (
	"math"
	"math/rand"
	"testing"
)

// FuzzMortonKey checks the key algebra on the octant FromPoint picks for an
// arbitrary point and level: the key is valid and holds its point, every
// ancestor contains it, child and parent round-trip, FromPoint one level
// down picks a child of k, every same-level neighbour is adjacent to k,
// PointCode is the code of FromPoint's finest cell, and the wire record
// round-trips. A
// coordinate outside [0, 1) lands where its clamp does. The seeds are
// key_test.go's tables; testdata/fuzz holds the non-finite and out-of-cube
// edges. `make fuzz` runs it for 10 s.
func FuzzMortonKey(f *testing.F) {
	rng := rand.New(rand.NewSource(5)) // TestFromPointAndContainsPoint's stream
	for trial := 0; trial < 8; trial++ {
		f.Add(rng.Float64(), rng.Float64(), rng.Float64(), uint8(rng.Intn(12)))
	}
	f.Add(1.5, -0.5, 0.99999999999, uint8(MaxDepth)) // the clamping case
	f.Add(0.5, 0.5, 0.5, uint8(0))                   // the root
	for _, k := range []Key{
		Root().Child(0).Child(7), // interior: 26 neighbours
		Root().Child(0).Child(0), // corner: 7 neighbours
		Root().Child(3).Child(5),
		Root().Child(5).LastDescendant(MaxDepth),
	} {
		x, y, z := k.Center()
		f.Add(x, y, z, k.L)
	}

	f.Fuzz(func(t *testing.T, x, y, z float64, l uint8) {
		lv := int(l) % (MaxDepth + 1)
		k := FromPoint(x, y, z, lv)
		if !k.Valid() || k.Level() != lv || !k.ContainsPoint(x, y, z) {
			t.Fatalf("FromPoint(%v, %v, %v, %d) = %v: valid %v, holds its point %v",
				x, y, z, lv, k, k.Valid(), k.ContainsPoint(x, y, z))
		}
		if c := FromPoint(clamp01(x), clamp01(y), clamp01(z), lv); c != k {
			t.Fatalf("FromPoint(%v, %v, %v, %d) = %v, but its clamp lands in %v", x, y, z, lv, k, c)
		}
		for m := 0; m <= lv; m++ {
			if a := k.AncestorAt(m); a.Level() != m || !a.Contains(k) {
				t.Fatalf("AncestorAt(%d) = %v does not contain %v", m, a, k)
			}
		}
		if lv < MaxDepth {
			for i := 0; i < 8; i++ {
				c := k.Child(i)
				if !c.Valid() || c.Parent() != k || c.ChildIndex() != i {
					t.Fatalf("child %d of %v: %v, parent %v, index %d", i, k, c, c.Parent(), c.ChildIndex())
				}
			}
			if c := FromPoint(x, y, z, lv+1); c.Parent() != k {
				t.Fatalf("FromPoint one level down picks %v, not a child of %v", c, k)
			}
		}
		for _, n := range k.NeighborsSameLevel() {
			if !k.Adjacent(n) {
				t.Fatalf("neighbour %v not adjacent to %v", n, k)
			}
		}
		if got, want := PointCode(x, y, z), CodeOf(FromPoint(x, y, z, MaxDepth)); got != want {
			t.Fatalf("PointCode(%v, %v, %v) = %v, want %v", x, y, z, got, want)
		}
		if got, rest := DecodeKey(k.AppendBinary(nil)); got != k || len(rest) != 0 {
			t.Fatalf("wire round trip of %v: %v with %d bytes left", k, got, len(rest))
		}
	})
}

// clamp01 is FromPoint's documented clamp of a coordinate to [0, 1); NaN
// stays NaN.
func clamp01(v float64) float64 {
	if v < 0 {
		return 0
	}
	return math.Min(v, math.Nextafter(1, 0))
}
