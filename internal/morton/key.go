// Package morton implements the Morton (Z-order) octant keys that underlie
// every tree structure in this codebase: the sequential adaptive octree, the
// distributed linear octree, local essential trees, and the space-filling
// -curve partitioning of the unit cube across ranks.
//
// A Key identifies one octant of the unit cube [0,1)³: its anchor (the corner
// with the smallest coordinates, in integer units of the finest level) plus
// its level. MaxDepth is 30, enough for the paper's deepest trees (the SC'09
// nonuniform run spans levels 2..27).
//
// Keys are ordered by the Morton preorder (Compare): ancestors sort
// immediately before their first descendant, and disjoint octants sort by
// the interleaved bits of their anchors (x most significant within each bit
// triple). That is the one order over octants: an octant's range is its
// FirstDescendant and LastDescendant at MaxDepth, and a rank's region of
// the distributed tree is a half-open interval of finest-level keys. The
// 90-bit Code (PointCode, CodeOf) is only the radix key octree.Build sorts
// points by; it orders finest-level cells as Compare does.
//
// The whole package is in deterministic scope: for a fixed input and plan
// its outputs must be bit-identical across runs and machines (machines:
// fmmvet's nodeterm; runs: make probe-check, which evaluates twice).
//
//fmm:deterministic
package morton

import (
	"encoding/binary"
	"fmt"
)

// MaxDepth is the deepest allowed octant level. Anchor coordinates use
// MaxDepth bits per dimension.
const MaxDepth = 30

// MaxCoord is the number of integer coordinate units along each axis at the
// finest level; anchors lie in [0, MaxCoord).
const MaxCoord = 1 << MaxDepth

// Key identifies an octant: anchor coordinates (in finest-level units, each
// < MaxCoord and aligned to the octant's side) and a level in [0, MaxDepth].
// The zero value is the root octant.
type Key struct {
	X, Y, Z uint32
	L       uint8
}

// Root returns the root octant (the whole unit cube).
func Root() Key { return Key{} }

// Level returns the octant's level (root is 0).
func (k Key) Level() int { return int(k.L) }

// SideUnits returns the octant's side length in finest-level integer units.
func (k Key) SideUnits() uint32 { return 1 << (MaxDepth - uint(k.L)) }

// Valid reports whether k is a well-formed key: level within range,
// coordinates within the domain and aligned to the level's grid.
func (k Key) Valid() bool {
	if k.L > MaxDepth {
		return false
	}
	mask := k.SideUnits() - 1
	if k.X&mask != 0 || k.Y&mask != 0 || k.Z&mask != 0 {
		return false
	}
	return k.X < MaxCoord && k.Y < MaxCoord && k.Z < MaxCoord
}

// Parent returns the parent octant. Calling Parent on the root panics.
func (k Key) Parent() Key {
	if k.L == 0 {
		panic("morton: root has no parent")
	}
	l := k.L - 1
	side := uint32(1) << (MaxDepth - uint(l))
	mask := ^(side - 1)
	return Key{X: k.X & mask, Y: k.Y & mask, Z: k.Z & mask, L: l}
}

// Child returns the i-th child (i in 0..7). The child index packs the three
// coordinate bits as i = 4*xbit + 2*ybit + zbit, matching the interleave
// order used for comparison.
func (k Key) Child(i int) Key {
	if k.L >= MaxDepth {
		panic("morton: cannot subdivide finest-level octant")
	}
	if i < 0 || i > 7 {
		panic("morton: child index out of range")
	}
	half := k.SideUnits() >> 1
	c := Key{X: k.X, Y: k.Y, Z: k.Z, L: k.L + 1}
	if i&4 != 0 {
		c.X += half
	}
	if i&2 != 0 {
		c.Y += half
	}
	if i&1 != 0 {
		c.Z += half
	}
	return c
}

// Children returns all eight children in Morton order.
func (k Key) Children() [8]Key {
	var out [8]Key
	for i := 0; i < 8; i++ {
		out[i] = k.Child(i)
	}
	return out
}

// ChildIndex returns which child of its parent k is. Calling it on the root
// panics.
func (k Key) ChildIndex() int {
	if k.L == 0 {
		panic("morton: root is not a child")
	}
	half := k.SideUnits()
	idx := 0
	if k.X&half != 0 {
		idx |= 4
	}
	if k.Y&half != 0 {
		idx |= 2
	}
	if k.Z&half != 0 {
		idx |= 1
	}
	return idx
}

// AncestorAt returns k's ancestor at level l (l <= k.Level; l == k.Level
// returns k itself).
func (k Key) AncestorAt(l int) Key {
	if l < 0 || l > k.Level() {
		panic("morton: invalid ancestor level")
	}
	side := uint32(1) << (MaxDepth - uint(l))
	mask := ^(side - 1)
	return Key{X: k.X & mask, Y: k.Y & mask, Z: k.Z & mask, L: uint8(l)}
}

// IsAncestorOf reports whether k is a strict ancestor of b.
func (k Key) IsAncestorOf(b Key) bool {
	return k.L < b.L && b.AncestorAt(k.Level()) == k
}

// Contains reports whether k is b or an ancestor of b (k's closed region
// contains b's region).
func (k Key) Contains(b Key) bool {
	return k.L <= b.L && b.AncestorAt(k.Level()) == k
}

// lessMSB reports whether the most significant set bit of a is strictly
// below that of b (Chan's XOR trick building block).
func lessMSB(a, b uint32) bool { return a < b && a < a^b }

// Compare orders keys by Morton preorder: -1 if k precedes b, 0 if equal,
// +1 if k follows b. An ancestor precedes all of its descendants.
func Compare(a, b Key) int {
	x := a.X ^ b.X
	y := a.Y ^ b.Y
	z := a.Z ^ b.Z
	// Find the dimension holding the most significant differing bit; ties
	// favor x over y over z because x occupies the most significant slot of
	// each interleaved triple.
	e, dim := x, 0
	if lessMSB(e, y) {
		e, dim = y, 1
	}
	if lessMSB(e, z) {
		dim = 2
	}
	var av, bv uint32
	switch dim {
	case 0:
		av, bv = a.X, b.X
	case 1:
		av, bv = a.Y, b.Y
	default:
		av, bv = a.Z, b.Z
	}
	switch {
	case av < bv:
		return -1
	case av > bv:
		return 1
	}
	// Same anchor: the coarser octant (the ancestor) comes first.
	switch {
	case a.L < b.L:
		return -1
	case a.L > b.L:
		return 1
	}
	return 0
}

// FirstDescendant returns k's first descendant at level l (same anchor).
func (k Key) FirstDescendant(l int) Key {
	if l < k.Level() || l > MaxDepth {
		panic("morton: invalid descendant level")
	}
	return Key{X: k.X, Y: k.Y, Z: k.Z, L: uint8(l)}
}

// LastDescendant returns k's last descendant at level l (the maximal-corner
// cell of k's subtree at that level).
func (k Key) LastDescendant(l int) Key {
	if l < k.Level() || l > MaxDepth {
		panic("morton: invalid descendant level")
	}
	off := k.SideUnits() - uint32(1)<<(MaxDepth-uint(l))
	return Key{X: k.X + off, Y: k.Y + off, Z: k.Z + off, L: uint8(l)}
}

// AppendBinary appends the key's wire record to b: X, Y, Z as little-endian
// uint32 and the level byte, 13 bytes. It is the one key encoding of every
// message that carries octants (leaf repartitioning, LET ghosts, ghost
// densities, the upward-density reductions).
func (k Key) AppendBinary(b []byte) []byte {
	b = binary.LittleEndian.AppendUint32(b, k.X)
	b = binary.LittleEndian.AppendUint32(b, k.Y)
	b = binary.LittleEndian.AppendUint32(b, k.Z)
	return append(b, k.L)
}

// DecodeKey reads one AppendBinary record from the front of b and returns
// the key and the rest of b.
func DecodeKey(b []byte) (Key, []byte) {
	k := Key{
		X: binary.LittleEndian.Uint32(b[0:]),
		Y: binary.LittleEndian.Uint32(b[4:]),
		Z: binary.LittleEndian.Uint32(b[8:]),
		L: b[12],
	}
	return k, b[13:]
}

// String renders the key as "L:(x,y,z)".
func (k Key) String() string {
	return fmt.Sprintf("%d:(%d,%d,%d)", k.L, k.X, k.Y, k.Z)
}
