package octree

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
// are never built (see TestXListDualOfW for the equivalence).

// BuildLists computes U, V, W, X for every node for which sel returns true
// (sel == nil selects all). Lists of unselected nodes are left empty.
func (t *Tree) BuildLists(sel func(n *Node) bool) {
	if sel == nil {
		sel = func(*Node) bool { return true }
	}
	colleagues := t.colleagueSets()

	for i := range t.Nodes {
		n := &t.Nodes[i]
		n.U, n.V, n.W, n.X = nil, nil, nil, nil
	}

	for i := range t.Nodes {
		n := &t.Nodes[i]
		if !sel(n) {
			continue
		}
		if n.Parent != NoNode {
			t.buildV(int32(i), colleagues)
			t.buildX(int32(i), colleagues)
		}
		if n.IsLeaf {
			t.buildUW(int32(i), colleagues)
		}
	}
}

// colleagueSets returns, per node, the same-level adjacent existing octants
// including the node itself (CC in the comments). Computed top-down: the
// colleagues of β are children of colleagues of P(β) that touch β.
func (t *Tree) colleagueSets() [][]int32 {
	cc := make([][]int32, len(t.Nodes))
	if len(t.Nodes) == 0 {
		return cc
	}
	cc[0] = []int32{0}
	for i := 1; i < len(t.Nodes); i++ {
		n := &t.Nodes[i]
		var set []int32
		for _, pj := range cc[n.Parent] {
			for _, cj := range t.Nodes[pj].Children {
				if cj == NoNode {
					continue
				}
				if cj == int32(i) || t.Nodes[cj].Key.Adjacent(n.Key) {
					set = append(set, cj)
				}
			}
		}
		cc[i] = set
	}
	return cc
}

// buildV collects children of P(β)'s colleagues that are not adjacent to β.
func (t *Tree) buildV(i int32, cc [][]int32) {
	n := &t.Nodes[i]
	for _, pj := range cc[n.Parent] {
		for _, cj := range t.Nodes[pj].Children {
			if cj == NoNode || cj == i {
				continue
			}
			if !t.Nodes[cj].Key.Adjacent(n.Key) {
				n.V = append(n.V, cj)
			}
		}
	}
}

// buildUW collects, for leaf β, the adjacent leaves at every level (U) and
// the non-adjacent children of adjacent octants below β's level (W).
func (t *Tree) buildUW(i int32, cc [][]int32) {
	n := &t.Nodes[i]
	n.U = append(n.U, i) // β itself

	// Coarser and same-level adjacent leaves: scan colleagues of every
	// ancestor (including β's own colleague set).
	anc := i
	for anc != NoNode {
		for _, g := range cc[anc] {
			if g == i {
				continue
			}
			gn := &t.Nodes[g]
			if gn.IsLeaf && gn.Key.Adjacent(n.Key) {
				n.U = append(n.U, g)
			}
		}
		anc = t.Nodes[anc].Parent
	}

	// Finer adjacent leaves (U) and the W members: descend from β's
	// same-level colleagues. Invariant of the descent: cur is adjacent to β,
	// so a non-adjacent child of cur has an adjacent parent — a W member.
	var descend func(cur int32)
	descend = func(cur int32) {
		for _, cj := range t.Nodes[cur].Children {
			if cj == NoNode {
				continue
			}
			cnode := &t.Nodes[cj]
			if cnode.Key.Adjacent(n.Key) {
				if cnode.IsLeaf {
					n.U = append(n.U, cj)
				} else {
					descend(cj)
				}
			} else {
				n.W = append(n.W, cj)
			}
		}
	}
	for _, g := range cc[i] {
		if g != i && !t.Nodes[g].IsLeaf {
			descend(g)
		}
	}
}

// buildX collects leaves α with β ∈ W(α), using the characterization:
// α is a leaf at a level coarser than β, adjacent to P(β) but not to β.
// Every such α is a colleague of one of P(β)'s ancestors (or of P(β)
// itself), so scanning the ancestor chain's colleague sets enumerates all
// candidates.
func (t *Tree) buildX(i int32, cc [][]int32) {
	n := &t.Nodes[i]
	pKey := t.Nodes[n.Parent].Key
	anc := n.Parent
	for anc != NoNode {
		for _, g := range cc[anc] {
			if g == n.Parent {
				continue
			}
			gn := &t.Nodes[g]
			if !gn.IsLeaf {
				continue
			}
			if gn.Key.Adjacent(pKey) && !gn.Key.Adjacent(n.Key) {
				n.X = append(n.X, g)
			}
		}
		anc = t.Nodes[anc].Parent
	}
}
