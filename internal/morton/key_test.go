package morton

import (
	"bytes"
	"cmp"
	"math/rand"
	"testing"
	"testing/quick"
)

func randKey(rng *rand.Rand, maxLevel int) Key {
	l := rng.Intn(maxLevel + 1)
	k := Root()
	for i := 0; i < l; i++ {
		k = k.Child(rng.Intn(8))
	}
	return k
}

func TestRootProperties(t *testing.T) {
	r := Root()
	if !r.Valid() || r.Level() != 0 || r.SideUnits() != MaxCoord {
		t.Fatalf("bad root: %v", r)
	}
	if x, y, z := r.Center(); x != 0.5 || y != 0.5 || z != 0.5 {
		t.Fatalf("root center (%v,%v,%v)", x, y, z)
	}
}

func TestChildParentRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		k := randKey(rng, 12)
		if k.Level() == MaxDepth {
			continue
		}
		for i := 0; i < 8; i++ {
			c := k.Child(i)
			if !c.Valid() {
				t.Fatalf("invalid child %v of %v", c, k)
			}
			if c.Parent() != k {
				t.Fatalf("parent(child(%v,%d)) = %v", k, i, c.Parent())
			}
			if c.ChildIndex() != i {
				t.Fatalf("ChildIndex mismatch: %d vs %d", c.ChildIndex(), i)
			}
			if !k.IsAncestorOf(c) || !k.Contains(c) {
				t.Fatalf("ancestor relation broken for %v -> %v", k, c)
			}
			if c.IsAncestorOf(k) {
				t.Fatalf("child is ancestor of parent")
			}
		}
	}
}

func TestChildrenAreSortedAndDistinct(t *testing.T) {
	k := Root().Child(3).Child(5)
	ch := k.Children()
	for i := 0; i+1 < 8; i++ {
		if Compare(ch[i], ch[i+1]) >= 0 {
			t.Fatalf("children not strictly sorted at %d", i)
		}
	}
}

func TestCompareMatchesCodeOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 500; trial++ {
		a, b := randKey(rng, 10), randKey(rng, 10)
		c := Compare(a, b)
		// Codes order finest-level anchors; for non-nested keys they must
		// agree with Compare. For nested keys the ancestor precedes.
		if a.Contains(b) || b.Contains(a) {
			switch {
			case a == b && c != 0:
				t.Fatalf("equal keys compare %d", c)
			case a.IsAncestorOf(b) && c != -1:
				t.Fatalf("ancestor should precede: %v vs %v -> %d", a, b, c)
			case b.IsAncestorOf(a) && c != 1:
				t.Fatalf("descendant should follow: %v vs %v -> %d", a, b, c)
			}
			continue
		}
		ac, bc := CodeOf(a), CodeOf(b)
		if cc := cmp.Or(cmp.Compare(ac.Hi, bc.Hi), cmp.Compare(ac.Lo, bc.Lo)); cc != c {
			t.Fatalf("Compare=%d but code compare=%d for %v, %v", c, cc, a, b)
		}
	}
}

func TestCompareIsTotalOrder(t *testing.T) {
	f := func(s1, s2, s3 int64) bool {
		rng := rand.New(rand.NewSource(s1 ^ s2<<1 ^ s3<<2))
		a, b, c := randKey(rng, 8), randKey(rng, 8), randKey(rng, 8)
		// Antisymmetry.
		if Compare(a, b) != -Compare(b, a) {
			return false
		}
		// Transitivity (weak test via sorting consistency).
		ks := []Key{a, b, c}
		SortKeys(ks)
		return Compare(ks[0], ks[1]) <= 0 && Compare(ks[1], ks[2]) <= 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestAncestorAt(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	k := randKey(rng, 15)
	for l := 0; l <= k.Level(); l++ {
		a := k.AncestorAt(l)
		if a.Level() != l || !a.Contains(k) {
			t.Fatalf("AncestorAt(%d) = %v for %v", l, a, k)
		}
	}
}

func TestFromPointAndContainsPoint(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 200; trial++ {
		x, y, z := rng.Float64(), rng.Float64(), rng.Float64()
		l := rng.Intn(12)
		k := FromPoint(x, y, z, l)
		if !k.Valid() || k.Level() != l {
			t.Fatalf("FromPoint invalid: %v", k)
		}
		if !k.ContainsPoint(x, y, z) {
			t.Fatalf("octant %v does not contain its point", k)
		}
		cx, cy, cz := k.Center()
		h := k.Side() / 2
		if x < cx-h || x >= cx+h || y < cy-h || y >= cy+h || z < cz-h || z >= cz+h {
			t.Fatalf("point outside bounds of %v", k)
		}
	}
	// Clamping.
	k := FromPoint(1.5, -0.5, 0.99999999999, MaxDepth)
	if !k.Valid() {
		t.Fatalf("clamped key invalid: %v", k)
	}
}

func TestAdjacentBasics(t *testing.T) {
	a := Root().Child(0) // lower corner
	b := Root().Child(7) // opposite corner: share only center vertex
	if !a.Adjacent(b) || !b.Adjacent(a) {
		t.Fatalf("opposite children should share the center vertex")
	}
	if a.Adjacent(a) {
		t.Fatalf("octant should not be adjacent to itself")
	}
	// Parent and child are nested, not adjacent.
	if a.Adjacent(Root()) || Root().Adjacent(a) {
		t.Fatalf("nested octants must not be adjacent")
	}
	// A fine cell touching a coarse cell's face.
	c := Root().Child(0).Child(7) // touches center of cube
	if !c.Adjacent(b) {
		t.Fatalf("fine cell should be adjacent to coarse cell at touching corner")
	}
}

func TestNeighborsSameLevel(t *testing.T) {
	// Interior octant has 26 neighbors.
	k := Root().Child(0).Child(7) // interior at level 2
	nb := k.NeighborsSameLevel()
	if len(nb) != 26 {
		t.Fatalf("interior octant: %d neighbors, want 26", len(nb))
	}
	for _, n := range nb {
		if !n.Valid() || n.Level() != k.Level() {
			t.Fatalf("bad neighbor %v", n)
		}
		if !k.Adjacent(n) {
			t.Fatalf("neighbor %v not adjacent to %v", n, k)
		}
	}
	// Corner octant has 7 neighbors.
	corner := Root().Child(0).Child(0)
	if got := len(corner.NeighborsSameLevel()); got != 7 {
		t.Fatalf("corner octant: %d neighbors, want 7", got)
	}
	// Root has none.
	if len(Root().NeighborsSameLevel()) != 0 {
		t.Fatalf("root should have no neighbors")
	}
}

func TestAdjacentSymmetric(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a, b := randKey(rng, 6), randKey(rng, 6)
		return a.Adjacent(b) == b.Adjacent(a)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// adjacentIntervals is the per-axis interval form of Adjacent, in int64
// arrays: closed boxes meet, open interiors do not.
func adjacentIntervals(k, b Key) bool {
	ks, bs := int64(k.SideUnits()), int64(b.SideUnits())
	kl := [3]int64{int64(k.X), int64(k.Y), int64(k.Z)}
	bl := [3]int64{int64(b.X), int64(b.Y), int64(b.Z)}
	closed, open := true, true
	for d := 0; d < 3; d++ {
		kh, bh := kl[d]+ks, bl[d]+bs
		if kl[d] > bh || bl[d] > kh {
			closed = false
		}
		if kl[d] >= bh || bl[d] >= kh {
			open = false
		}
	}
	return closed && !open
}

// TestAdjacentMatchesIntervals checks Adjacent against the interval form
// on keys that lie near each other, from the root's level down to the
// finest: a key, its same-level neighbours one and two sides away, and a
// random ancestor or descendant of each.
func TestAdjacentMatchesIntervals(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	for trial := 0; trial < 4000; trial++ {
		k := randKey(rng, MaxDepth)
		if trial%4 == 0 { // at the finest levels too
			k = k.FirstDescendant(max(k.Level(), MaxDepth-rng.Intn(3)))
		}
		same := append(k.NeighborsSameLevel(), k)
		for _, n := range k.NeighborsSameLevel() {
			same = append(same, n.NeighborsSameLevel()...)
		}
		for _, n := range same {
			// A relative of n: an ancestor or a descendant.
			m := n
			if l := rng.Intn(MaxDepth + 1); l <= n.Level() {
				m = n.AncestorAt(l)
			} else {
				for m.Level() < l {
					m = m.Child(rng.Intn(8))
				}
			}
			for _, p := range [][2]Key{{k, n}, {k, m}, {m, k}, {n, m}} {
				if got, want := p[0].Adjacent(p[1]), adjacentIntervals(p[0], p[1]); got != want {
					t.Fatalf("%v.Adjacent(%v) = %v, want %v", p[0], p[1], got, want)
				}
			}
		}
	}
}

// TestDescendantRangeNesting checks that an octant's finest-level range,
// FirstDescendant to LastDescendant, brackets exactly its descendants: its
// children's ranges tile it in order, every descendant's range lies inside
// it, and a key neither nested in it nor holding it lies wholly before or
// after it.
func TestDescendantRangeNesting(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for trial := 0; trial < 200; trial++ {
		k := randKey(rng, 10)
		lo, hi := k.FirstDescendant(MaxDepth), k.LastDescendant(MaxDepth)
		if Compare(lo, hi) > 0 {
			t.Fatalf("inverted range for %v", k)
		}
		ch := k.Children()
		if ch[0].FirstDescendant(MaxDepth) != lo || ch[7].LastDescendant(MaxDepth) != hi {
			t.Fatalf("children do not span %v", k)
		}
		for i := 0; i+1 < 8; i++ {
			if next, ok := ch[i].after(); !ok || next != ch[i+1].FirstDescendant(MaxDepth) {
				t.Fatalf("child ranges not contiguous for %v at %d", k, i)
			}
		}
		d := k
		for d.Level() < MaxDepth && rng.Intn(8) != 0 {
			d = d.Child(rng.Intn(8))
		}
		if Compare(lo, d.FirstDescendant(MaxDepth)) > 0 || Compare(d.LastDescendant(MaxDepth), hi) > 0 {
			t.Fatalf("descendant %v escapes the range of %v", d, k)
		}
		if b := randKey(rng, 10); !k.Contains(b) && !b.Contains(k) {
			before := Compare(b.LastDescendant(MaxDepth), lo) < 0
			after := Compare(b.FirstDescendant(MaxDepth), hi) > 0
			if before == after {
				t.Fatalf("disjoint %v and %v: before %v, after %v", b, k, before, after)
			}
		}
	}
}

func TestFirstLastDescendant(t *testing.T) {
	k := Root().Child(5)
	fd := k.FirstDescendant(MaxDepth)
	ld := k.LastDescendant(MaxDepth)
	if !k.Contains(fd) || !k.Contains(ld) {
		t.Fatalf("descendants escape octant")
	}
	if CodeOf(fd) != CodeOf(k) {
		t.Fatalf("first descendant code mismatch")
	}
	if a, _ := ld.after(); a != Root().Child(6).FirstDescendant(MaxDepth) {
		t.Fatalf("last descendant is followed by %v, not the next sibling", a)
	}
}

func TestKeyAccessors(t *testing.T) {
	k := Root().Child(3)
	if k.String() == "" || k.String() == Root().String() {
		t.Fatalf("String broken")
	}
}

// TestKeyWireLayout pins the 13-byte record every octant-carrying message
// uses (X, Y, Z little-endian, then the level) and its round trip.
func TestKeyWireLayout(t *testing.T) {
	k := Key{X: 0x04030201, Y: 0x08070605, Z: 0x0c0b0a09, L: 13}
	b := k.AppendBinary([]byte{0xff})
	if want := []byte{0xff, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13}; !bytes.Equal(b, want) {
		t.Fatalf("wire record % x, want % x", b, want)
	}
	got, rest := DecodeKey(append(b[1:], 0xee))
	if got != k || len(rest) != 1 || rest[0] != 0xee {
		t.Fatalf("decoded %v with rest % x", got, rest)
	}
}
