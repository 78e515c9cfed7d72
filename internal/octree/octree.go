// Package octree implements the adaptive linear octree at the heart of the
// FMM: construction from point sets (subdividing any octant holding more
// than q points), assembly from externally computed leaf sets (used by the
// distributed tree construction and the local essential trees), and the
// U/V/W/X interaction lists of Table I of the paper.
//
// The whole package is in deterministic scope: for a fixed input and plan
// its outputs must be bit-identical across runs and machines (machines:
// fmmvet's nodeterm; runs: make probe-check, which evaluates twice).
//
//fmm:deterministic
package octree

import (
	"fmt"
	"slices"

	"kifmm/internal/geom"
	"kifmm/internal/morton"
)

// NoNode marks an absent parent/child reference.
const NoNode = int32(-1)

// Node is one octant of the tree. Interaction lists hold node indices.
type Node struct {
	Key      morton.Key
	Parent   int32
	Children [8]int32
	// IsLeaf marks leaves of the global FMM tree (octants that carry source
	// points). In a local essential tree, internal ghost octants have
	// IsLeaf false even though they have no children locally.
	IsLeaf bool
	// Local marks octants owned/evaluated by this rank. Sequential trees
	// have Local true everywhere.
	Local bool
	// PtLo, PtHi delimit the leaf's points in Tree.Points ([lo, hi)).
	PtLo, PtHi int32
	// Interaction lists (Table I). U and W are built for leaves, V and X
	// for any octant.
	U, V, W, X []int32
}

// NPoints returns the number of points attached to the node.
func (n *Node) NPoints() int { return int(n.PtHi - n.PtLo) }

// Tree is a linear octree in Morton preorder: every parent precedes its
// children in Nodes, so ascending index order is a valid top-down traversal
// and descending order a valid bottom-up traversal.
type Tree struct {
	Nodes []Node
	// Leaves are indices of IsLeaf nodes in Morton order.
	Leaves []int32
	// Points holds every leaf's points, contiguous per leaf in leaf order.
	Points []geom.Point
	// Perm maps Points index to the caller's original point index
	// (identity-style bookkeeping for Build; nil for Assemble trees).
	Perm []int
}

// OctantSpec describes one explicit octant for Assemble.
type OctantSpec struct {
	Key    morton.Key
	IsLeaf bool
	Local  bool
	Points []geom.Point
}

// Build constructs an adaptive octree over pts: starting from the root, any
// octant containing more than q points is subdivided (up to maxDepth), and
// only octants containing points are materialized. This is the sequential
// analogue of the paper's tree construction. With q = 0 every nonempty
// octant is refined to maxDepth: the uniform-depth tree of the paper's GPU
// experiments, whose leaves share one level and whose W/X lists are empty.
//
// Points and Perm list the points in Morton order of their finest-level
// cells; points in one cell (coincident points, for one) keep their input
// order, so ties are broken by original index. The order comes from one
// radix sort of the points' 90-bit codes and indices (sortCodes), and each
// octant's children split its point range where their codes say.
func Build(pts []geom.Point, q, maxDepth int) *Tree {
	if q < 0 {
		panic("octree: q must be >= 0")
	}
	if maxDepth < 0 || maxDepth > morton.MaxDepth {
		panic("octree: invalid maxDepth")
	}
	codes := sortCodes(pts)
	t := &Tree{
		Points: make([]geom.Point, len(pts)),
		Perm:   make([]int, len(pts)),
	}
	for i, c := range codes {
		t.Points[i] = pts[c.index()]
		t.Perm[i] = c.index()
	}
	s := splitter{codes: codes, q: q, maxDepth: maxDepth}
	t.Nodes = make([]Node, 0, s.count(0, 0, len(codes)))
	s.build(t, morton.Root(), 0, len(codes), NoNode) // no points: a root leaf
	t.finish()
	return t
}

// splitter subdivides Build's sorted codes: an octant over the range
// [lo, hi) is a leaf if it holds at most q points or sits at maxDepth, and
// otherwise each child's points are the run of codes with its octant digit.
type splitter struct {
	codes       []pointCode
	q, maxDepth int
}

func (s *splitter) leaf(level, lo, hi int) bool { return hi-lo <= s.q || level >= s.maxDepth }

// childEnd returns the end of the run of codes in [lo, hi) that share
// codes[lo]'s child octant below level.
func (s *splitter) childEnd(level, lo, hi int) int {
	c := s.codes[lo].octant(level)
	for lo++; lo < hi; {
		m := int(uint(lo+hi) >> 1)
		if s.codes[m].octant(level) <= c {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo
}

// count returns the number of octants build makes of the range, so the
// nodes are allocated once.
func (s *splitter) count(level, lo, hi int) int {
	n := 1
	if s.leaf(level, lo, hi) {
		return n
	}
	for cur := lo; cur < hi; {
		end := s.childEnd(level, cur, hi)
		n += s.count(level+1, cur, end)
		cur = end
	}
	return n
}

// build appends the octant key over [lo, hi) and its subtree in preorder.
func (s *splitter) build(t *Tree, key morton.Key, lo, hi int, parent int32) {
	idx := t.addNode(key, parent)
	if s.leaf(key.Level(), lo, hi) {
		n := &t.Nodes[idx]
		n.IsLeaf = true
		n.PtLo, n.PtHi = int32(lo), int32(hi)
		return
	}
	for cur := lo; cur < hi; {
		end := s.childEnd(key.Level(), cur, hi)
		s.build(t, key.Child(s.codes[cur].octant(key.Level())), cur, end, idx)
		cur = end
	}
}

// Assemble constructs a tree from explicit octant specifications: all
// specified octants plus their ancestors are created; specified octants keep
// their IsLeaf/Local flags and points. Specs may arrive in any order; keys
// must be distinct and leaf octants must not overlap other specified
// octants' leaf regions. This is the constructor used by the distributed
// tree construction and the local essential trees.
//
// The specs are taken in Morton order. Each one's ancestors are either on
// the path from the root to the octant made last or new, and the new ones
// are due right before it, so that path is all the index a parent lookup
// needs.
func Assemble(specs []OctantSpec) *Tree {
	order := make([]int32, len(specs))
	for i := range order {
		order[i] = int32(i)
	}
	slices.SortFunc(order, func(a, b int32) int { return morton.Compare(specs[a].Key, specs[b].Key) })
	nPts := 0
	for i, si := range order {
		if i > 0 && specs[si].Key == specs[order[i-1]].Key {
			panic(fmt.Sprintf("octree: duplicate octant %v in Assemble", specs[si].Key))
		}
		nPts += len(specs[si].Points)
	}

	t := &Tree{Nodes: make([]Node, 0, len(specs)+1)}
	if nPts > 0 {
		t.Points = make([]geom.Point, 0, nPts)
	}
	// path[l] is the level-l octant on the path to the octant made last;
	// path[:depth] is that path.
	var path [morton.MaxDepth + 1]int32
	depth := 0
	for _, si := range order {
		s := &specs[si]
		l := s.Key.Level()
		// Keep the part of the path that holds s's ancestors, then make the
		// missing ones and s itself.
		depth = min(depth, l)
		for depth > 0 && t.Nodes[path[depth-1]].Key != s.Key.AncestorAt(depth-1) {
			depth--
		}
		for ; depth <= l; depth++ {
			parent := NoNode
			if depth > 0 {
				parent = path[depth-1]
			}
			path[depth] = t.addNode(s.Key.AncestorAt(depth), parent)
		}
		n := &t.Nodes[path[l]]
		n.IsLeaf, n.Local = s.IsLeaf, s.Local
		if len(s.Points) > 0 {
			n.PtLo = int32(len(t.Points))
			t.Points = append(t.Points, s.Points...)
			n.PtHi = int32(len(t.Points))
		}
	}
	if len(t.Nodes) == 0 {
		t.addNode(morton.Root(), NoNode)
	}
	t.finish()
	return t
}

// addNode appends a node and wires it to its parent.
func (t *Tree) addNode(key morton.Key, parent int32) int32 {
	idx := int32(len(t.Nodes))
	n := Node{Key: key, Parent: parent, Local: true}
	for i := range n.Children {
		n.Children[i] = NoNode
	}
	t.Nodes = append(t.Nodes, n)
	if parent != NoNode {
		t.Nodes[parent].Children[key.ChildIndex()] = idx
	}
	return idx
}

// finish populates the leaf list.
func (t *Tree) finish() {
	n := 0
	for i := range t.Nodes {
		if t.Nodes[i].IsLeaf {
			n++
		}
	}
	t.Leaves = make([]int32, 0, n)
	for i := range t.Nodes {
		if t.Nodes[i].IsLeaf {
			t.Leaves = append(t.Leaves, int32(i))
		}
	}
}

// Index returns the node index of key: a binary search, since Nodes are in
// Morton preorder, the order morton.Compare sorts keys in.
func (t *Tree) Index(key morton.Key) (int32, bool) {
	lo, hi := 0, len(t.Nodes)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if morton.Compare(t.Nodes[m].Key, key) < 0 {
			lo = m + 1
		} else {
			hi = m
		}
	}
	if lo < len(t.Nodes) && t.Nodes[lo].Key == key {
		return int32(lo), true
	}
	return 0, false
}

// Root returns the root node index (always 0).
func (t *Tree) Root() int32 { return 0 }

// NumNodes returns the total octant count.
func (t *Tree) NumNodes() int { return len(t.Nodes) }

// MaxLevel returns the deepest level present.
func (t *Tree) MaxLevel() int {
	mx := 0
	for i := range t.Nodes {
		if l := t.Nodes[i].Key.Level(); l > mx {
			mx = l
		}
	}
	return mx
}

// MinLeafLevel returns the coarsest leaf level.
func (t *Tree) MinLeafLevel() int {
	mn := morton.MaxDepth + 1
	for _, li := range t.Leaves {
		if l := t.Nodes[li].Key.Level(); l < mn {
			mn = l
		}
	}
	if mn > morton.MaxDepth {
		return 0
	}
	return mn
}

// LeafPoints returns the point slice of leaf node i.
func (t *Tree) LeafPoints(i int32) []geom.Point {
	n := &t.Nodes[i]
	return t.Points[n.PtLo:n.PtHi]
}

// Validate checks structural invariants: preorder storage, parent/child
// wiring, leaf/point consistency. It returns the first violation found.
func (t *Tree) Validate() error {
	if len(t.Nodes) == 0 {
		return fmt.Errorf("octree: empty tree")
	}
	if t.Nodes[0].Key != morton.Root() {
		return fmt.Errorf("octree: node 0 is not the root")
	}
	for i := range t.Nodes {
		n := &t.Nodes[i]
		if !n.Key.Valid() {
			return fmt.Errorf("octree: invalid key %v", n.Key)
		}
		if n.Parent != NoNode {
			if n.Parent >= int32(i) {
				return fmt.Errorf("octree: parent after child at %d", i)
			}
			p := &t.Nodes[n.Parent]
			if !p.Key.IsAncestorOf(n.Key) || p.Key.Level() != n.Key.Level()-1 {
				return fmt.Errorf("octree: bad parent link at %d", i)
			}
			if p.Children[n.Key.ChildIndex()] != int32(i) {
				return fmt.Errorf("octree: child link broken at %d", i)
			}
		} else if i != 0 {
			return fmt.Errorf("octree: non-root without parent at %d", i)
		}
		if n.NPoints() > 0 && !n.IsLeaf {
			return fmt.Errorf("octree: internal node %d has points", i)
		}
		if n.PtLo > n.PtHi || int(n.PtHi) > len(t.Points) {
			return fmt.Errorf("octree: bad point range at %d", i)
		}
		for _, p := range t.LeafPoints(int32(i)) {
			if !n.Key.ContainsPoint(p.X, p.Y, p.Z) {
				return fmt.Errorf("octree: point escapes leaf %v", n.Key)
			}
		}
	}
	return nil
}
