package morton

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestKeyFromCodeInvertsCodeOf(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		k := randKey(rng, MaxDepth).FirstDescendant(MaxDepth)
		return KeyFromCode(CodeOf(k)) == k
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestCodePrevNextInverse(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		c := CodeOf(randKey(rng, MaxDepth).FirstDescendant(MaxDepth))
		if c == (Code{}) {
			return c.Next().Prev() == c
		}
		return c.Prev().Next() == c && c.Next().Prev() == c
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestCodePrevNextCrossWordBoundary(t *testing.T) {
	c := Code{Hi: 1, Lo: 0}
	p := c.Prev()
	if p.Hi != 0 || p.Lo != ^uint64(0) {
		t.Fatalf("Prev across word boundary wrong: %+v", p)
	}
	if p.Next() != c {
		t.Fatalf("Next did not undo Prev")
	}
}

func TestPrevOfZeroPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatalf("expected panic")
		}
	}()
	(Code{}).Prev()
}

func TestMaxCodeIsLastCell(t *testing.T) {
	last := Root().LastDescendant(MaxDepth)
	lo, hi := last.CodeRange()
	if lo != hi || lo != MaxCode() {
		t.Fatalf("MaxCode mismatch: %+v vs %+v", lo, MaxCode())
	}
}

func TestRangesOverlap(t *testing.T) {
	a := Root().Child(0)
	b := Root().Child(1)
	alo, ahi := a.CodeRange()
	blo, bhi := b.CodeRange()
	if RangesOverlap(alo, ahi, blo, bhi) {
		t.Fatalf("disjoint siblings reported overlapping")
	}
	rlo, rhi := Root().CodeRange()
	if !RangesOverlap(alo, ahi, rlo, rhi) {
		t.Fatalf("child should overlap root")
	}
	// Touching endpoints count as overlap (inclusive ranges).
	if !RangesOverlap(alo, ahi, ahi, bhi) {
		t.Fatalf("shared endpoint should overlap")
	}
}

func TestKeyAccessors(t *testing.T) {
	k := Root().Child(3)
	if k.String() == "" || k.String() == Root().String() {
		t.Fatalf("String broken")
	}
}
