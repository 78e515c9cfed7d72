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
	"sort"

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

	index map[morton.Key]int32
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
func Build(pts []geom.Point, q, maxDepth int) *Tree {
	if q < 0 {
		panic("octree: q must be >= 0")
	}
	if maxDepth < 0 || maxDepth > morton.MaxDepth {
		panic("octree: invalid maxDepth")
	}
	type pk struct {
		key morton.Key
		idx int
	}
	pks := make([]pk, len(pts))
	for i, p := range pts {
		pks[i] = pk{morton.FromPoint(p.X, p.Y, p.Z, morton.MaxDepth), i}
	}
	sort.Slice(pks, func(i, j int) bool { return morton.Compare(pks[i].key, pks[j].key) < 0 })

	t := &Tree{
		Points: make([]geom.Point, len(pts)),
		Perm:   make([]int, len(pts)),
		index:  make(map[morton.Key]int32),
	}
	for i, e := range pks {
		t.Points[i] = pts[e.idx]
		t.Perm[i] = e.idx
	}

	// Recursive subdivision over the sorted range.
	var subdivide func(key morton.Key, lo, hi int, parent int32)
	subdivide = func(key morton.Key, lo, hi int, parent int32) {
		idx := t.addNode(key, parent)
		n := &t.Nodes[idx]
		if hi-lo <= q || key.Level() >= maxDepth {
			n.IsLeaf = true
			n.PtLo, n.PtHi = int32(lo), int32(hi)
			return
		}
		// Partition [lo, hi) among the eight children; point keys are
		// sorted so each child is a contiguous subrange.
		cur := lo
		for c := 0; c < 8; c++ {
			child := key.Child(c)
			end := cur
			if c == 7 {
				end = hi
			} else {
				boundary := child.LastDescendant(morton.MaxDepth)
				end = cur + sort.Search(hi-cur, func(i int) bool {
					return morton.Compare(pks[cur+i].key, boundary) > 0
				})
			}
			if end > cur {
				subdivide(child, cur, end, idx)
			}
			cur = end
		}
	}
	if len(pts) > 0 {
		subdivide(morton.Root(), 0, len(pts), NoNode)
	} else {
		root := t.addNode(morton.Root(), NoNode)
		t.Nodes[root].IsLeaf = true
	}
	t.finish()
	return t
}

// Assemble constructs a tree from explicit octant specifications: all
// specified octants plus their ancestors are created; specified octants keep
// their IsLeaf/Local flags and points. Specs may arrive in any order; keys
// must be distinct and leaf octants must not overlap other specified
// octants' leaf regions. This is the constructor used by the distributed
// tree construction and the local essential trees.
func Assemble(specs []OctantSpec) *Tree {
	seen := make(map[morton.Key]int, len(specs))
	for i, s := range specs {
		if _, dup := seen[s.Key]; dup {
			panic(fmt.Sprintf("octree: duplicate octant %v in Assemble", s.Key))
		}
		seen[s.Key] = i
	}
	// Gather all keys: specs plus ancestors.
	keys := make([]morton.Key, 0, 2*len(specs))
	anc := make(map[morton.Key]bool)
	for _, s := range specs {
		keys = append(keys, s.Key)
		k := s.Key
		for k.Level() > 0 {
			k = k.Parent()
			if anc[k] {
				break
			}
			anc[k] = true
		}
	}
	for k := range anc {
		if _, isSpec := seen[k]; !isSpec {
			keys = append(keys, k)
		}
	}
	if len(keys) == 0 {
		keys = append(keys, morton.Root())
	}
	morton.SortKeys(keys)
	keys = morton.Dedup(keys)

	t := &Tree{index: make(map[morton.Key]int32, len(keys))}
	for _, k := range keys {
		parent := NoNode
		if k.Level() > 0 {
			pi, ok := t.index[k.Parent()]
			if !ok {
				panic(fmt.Sprintf("octree: missing ancestor of %v", k))
			}
			parent = pi
		}
		idx := t.addNode(k, parent)
		if si, ok := seen[k]; ok {
			s := specs[si]
			t.Nodes[idx].IsLeaf = s.IsLeaf
			t.Nodes[idx].Local = s.Local
		}
	}
	// Attach points in node (Morton) order so each leaf's range is
	// contiguous.
	for i := range t.Nodes {
		n := &t.Nodes[i]
		if si, ok := seen[n.Key]; ok && len(specs[si].Points) > 0 {
			n.PtLo = int32(len(t.Points))
			t.Points = append(t.Points, specs[si].Points...)
			n.PtHi = int32(len(t.Points))
		}
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
	t.index[key] = idx
	if parent != NoNode {
		t.Nodes[parent].Children[key.ChildIndex()] = idx
	}
	return idx
}

// finish populates the leaf list.
func (t *Tree) finish() {
	t.Leaves = t.Leaves[:0]
	for i := range t.Nodes {
		if t.Nodes[i].IsLeaf {
			t.Leaves = append(t.Leaves, int32(i))
		}
	}
}

// Index returns the node index of key.
func (t *Tree) Index(key morton.Key) (int32, bool) {
	i, ok := t.index[key]
	return i, ok
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
