package octree

import (
	"math/bits"

	"kifmm/internal/morton"
)

// This file builds the interaction lists of Table I:
//
//	U(β) — leaf β: all leaf octants adjacent to β, plus β itself
//	       (direct/exact interactions).
//	V(β) — any β: children of colleagues of P(β) not adjacent to β
//	       (multipole-to-local translations).
//	W(β) — leaf β: descendants α of β's colleagues with P(α) adjacent to β
//	       but α itself not adjacent (upward-density to targets).
//	X(β) — any β: the dual of W — leaves α with β ∈ W(α)
//	       (sources to downward-check).
//
// Lists are built from per-node "colleague" sets (same-level adjacent
// existing octants) computed in one top-down pass; X is built directly from
// its closed-form characterization so that, in a local essential tree, a
// local octant's X-list is complete even when the ghost octants' own W-lists
// are never built (TestListSymmetries checks the duality).
//
// Each kind of list is one flat array, the nodes' lists in node order; a
// node's list is its window of that array, capped at its length, so an
// append to one node's list copies it rather than overwrite the next node's.
// The colleague sets are one flat array too, dropped when the lists are
// done.

// BuildLists computes U, V, W, X for every node for which sel returns true
// (sel == nil selects all). Lists of unselected nodes are left empty.
func (t *Tree) BuildLists(sel func(n *Node) bool) {
	b := listBuilder{t: t, sel: make([]bool, len(t.Nodes))}
	for _, f := range []*flatLists{&b.u, &b.v, &b.w, &b.x} {
		f.off = make([]int32, 1, len(t.Nodes)+1)
	}
	leaves := 0
	for i := range t.Nodes {
		n := &t.Nodes[i]
		n.U, n.V, n.W, n.X = nil, nil, nil, nil
		b.sel[i] = sel == nil || sel(n)
		if b.sel[i] && n.IsLeaf {
			leaves++
		}
	}
	nV := b.colleagueSets()
	b.v.data = make([]int32, 0, nV)
	b.u.data = make([]int32, 0, 27*leaves) // 27 where neighbours share a level

	for i := range t.Nodes {
		n := &t.Nodes[i]
		if b.sel[i] {
			if n.Parent != NoNode {
				b.buildV(int32(i))
				b.buildX(int32(i))
			}
			if n.IsLeaf {
				b.buildUW(int32(i))
			}
		}
		b.u.close()
		b.v.close()
		b.w.close()
		b.x.close()
	}
	b.u.windows(t.Nodes, func(n *Node) *[]int32 { return &n.U })
	b.v.windows(t.Nodes, func(n *Node) *[]int32 { return &n.V })
	b.w.windows(t.Nodes, func(n *Node) *[]int32 { return &n.W })
	b.x.windows(t.Nodes, func(n *Node) *[]int32 { return &n.X })
}

// flatLists is one kind of list for every node: node i's list is
// data[off[i]:off[i+1]].
type flatLists struct {
	data []int32
	off  []int32
}

// close ends the list of the next node.
func (f *flatLists) close() { f.off = append(f.off, int32(len(f.data))) }

// windows copies the lists into one array of their exact total length and
// points each node's list at its window of it (nil where empty).
func (f *flatLists) windows(nodes []Node, list func(*Node) *[]int32) {
	data := f.data
	if cap(data) != len(data) {
		data = make([]int32, len(f.data))
		copy(data, f.data)
	}
	for i := range nodes {
		if a, b := f.off[i], f.off[i+1]; b > a {
			*list(&nodes[i]) = data[a:b:b]
		}
	}
}

// listBuilder holds BuildLists' state: the selection, each node's
// occupied child slots (bit c set when Children[c] exists), the colleague
// sets (node i's is cc[ccOff[i]:ccOff[i+1]]) and the four lists being
// filled.
type listBuilder struct {
	t          *Tree
	sel        []bool
	kids       []uint8
	cc         []int32
	ccOff      []int32
	u, v, w, x flatLists
}

// colleagues returns node i's colleague set.
func (b *listBuilder) colleagues(i int32) []int32 { return b.cc[b.ccOff[i]:b.ccOff[i+1]] }

// nearSlots[o][s] is the set of child slots of an octant at offset o from
// a parent (o = 9(dx+1) + 3(dy+1) + dz+1, each d in {-1, 0, 1} sides) that
// lie within one side, on every axis, of the parent's child in slot s. A
// child slot is 4·xbit + 2·ybit + zbit (morton.Key.Child); along one axis a
// child bit c of the octant at offset d and the bit b of the parent's child
// are one side apart or less when |2d + c - b| <= 1.
var nearSlots = func() (t [27][8]uint8) {
	bit := func(slot, axis int) int { return slot >> (2 - axis) & 1 }
	for o := range t {
		d := [3]int{o/9 - 1, o/3%3 - 1, o%3 - 1}
		for s := range t[o] {
			for c := 0; c < 8; c++ {
				near := true
				for a := range d {
					if g := 2*d[a] + bit(c, a) - bit(s, a); g < -1 || g > 1 {
						near = false
					}
				}
				if near {
					t[o][s] |= 1 << c
				}
			}
		}
	}
	return t
}()

// near returns the occupied child slots of pj, a colleague of the parent
// with key pKey, that hold colleagues of the parent's child in slot.
func (b *listBuilder) near(pj int32, pKey morton.Key, slot int) uint8 {
	k := &b.t.Nodes[pj].Key
	o := 9*axisOffset(k.X, pKey.X) + 3*axisOffset(k.Y, pKey.Y) + axisOffset(k.Z, pKey.Z)
	return nearSlots[o][slot] & b.kids[pj]
}

// axisOffset returns d + 1, where d in {-1, 0, 1} is the offset, in sides,
// of a colleague's anchor coordinate a from its octant's p.
func axisOffset(a, p uint32) int {
	switch {
	case a < p:
		return 0
	case a == p:
		return 1
	}
	return 2
}

// colleagueSets computes, per node, the same-level adjacent existing
// octants including the node itself (CC in the comments), top-down: the
// colleagues of β are the children of colleagues of P(β) within one side of
// β on every axis, which nearSlots reads off their offset from P(β) and β's
// child slot. It returns the length of all selected nodes' V lists
// together: the other children of P(β)'s colleagues.
func (b *listBuilder) colleagueSets() (nV int) {
	nodes := b.t.Nodes
	if len(nodes) == 0 {
		return 0
	}
	b.kids = make([]uint8, len(nodes))
	for i := range nodes {
		for c, cj := range nodes[i].Children {
			if cj != NoNode {
				b.kids[i] |= 1 << c
			}
		}
	}
	b.cc = make([]int32, 1, 27*len(nodes)) // the root is its only colleague
	b.ccOff = make([]int32, len(nodes)+1)
	b.ccOff[1] = 1
	for i := 1; i < len(nodes); i++ {
		parent := nodes[i].Parent
		pKey, slot := nodes[parent].Key, nodes[i].Key.ChildIndex()
		for _, pj := range b.colleagues(parent) {
			m := b.near(pj, pKey, slot)
			if b.sel[i] {
				nV += bits.OnesCount8(b.kids[pj] &^ m)
			}
			for ; m != 0; m &= m - 1 {
				b.cc = append(b.cc, nodes[pj].Children[bits.TrailingZeros8(m)])
			}
		}
		b.ccOff[i+1] = int32(len(b.cc))
	}
	return nV
}

// buildV collects children of P(β)'s colleagues that are not adjacent to β:
// the occupied slots near leaves out.
func (b *listBuilder) buildV(i int32) {
	nodes := b.t.Nodes
	parent := nodes[i].Parent
	pKey, slot := nodes[parent].Key, nodes[i].Key.ChildIndex()
	for _, pj := range b.colleagues(parent) {
		for m := b.kids[pj] &^ b.near(pj, pKey, slot); m != 0; m &= m - 1 {
			b.v.data = append(b.v.data, nodes[pj].Children[bits.TrailingZeros8(m)])
		}
	}
}

// buildUW collects, for leaf β, the adjacent leaves at every level (U) and
// the non-adjacent children of adjacent octants below β's level (W).
func (b *listBuilder) buildUW(i int32) {
	nodes := b.t.Nodes
	key := nodes[i].Key
	b.u.data = append(b.u.data, i) // β itself

	// Same-level adjacent leaves: β's colleagues other than β.
	for _, g := range b.colleagues(i) {
		if g != i && nodes[g].IsLeaf {
			b.u.data = append(b.u.data, g)
		}
	}
	// Coarser adjacent leaves: scan the colleagues of every ancestor.
	for anc := nodes[i].Parent; anc != NoNode; anc = nodes[anc].Parent {
		for _, g := range b.colleagues(anc) {
			if gn := &nodes[g]; gn.IsLeaf && gn.Key.Adjacent(key) {
				b.u.data = append(b.u.data, g)
			}
		}
	}

	// Finer adjacent leaves (U) and the W members: descend from β's
	// same-level colleagues.
	for _, g := range b.colleagues(i) {
		if g != i && !nodes[g].IsLeaf {
			b.descend(key, g)
		}
	}
}

// descend visits cur's children for the leaf with key: adjacent leaves join
// its U list, adjacent internal octants are descended into, and the others
// join its W list. Invariant of the descent: cur is adjacent to the leaf, so
// a non-adjacent child of cur has an adjacent parent — a W member.
func (b *listBuilder) descend(key morton.Key, cur int32) {
	nodes := b.t.Nodes
	for _, cj := range nodes[cur].Children {
		if cj == NoNode {
			continue
		}
		c := &nodes[cj]
		switch {
		case !c.Key.Adjacent(key):
			b.w.data = append(b.w.data, cj)
		case c.IsLeaf:
			b.u.data = append(b.u.data, cj)
		default:
			b.descend(key, cj)
		}
	}
}

// buildX collects leaves α with β ∈ W(α), using the characterization:
// α is a leaf at a level coarser than β, adjacent to P(β) but not to β.
// Every such α is a colleague of one of P(β)'s ancestors (or of P(β)
// itself), so scanning the ancestor chain's colleague sets enumerates all
// candidates.
func (b *listBuilder) buildX(i int32) {
	nodes := b.t.Nodes
	key := nodes[i].Key
	parent := nodes[i].Parent
	pKey := nodes[parent].Key
	for anc := parent; anc != NoNode; anc = nodes[anc].Parent {
		for _, g := range b.colleagues(anc) {
			if g == parent {
				continue
			}
			if gn := &nodes[g]; gn.IsLeaf && gn.Key.Adjacent(pKey) && !gn.Key.Adjacent(key) {
				b.x.data = append(b.x.data, g)
			}
		}
	}
}
