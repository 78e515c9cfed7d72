package octree

import (
	"fmt"
	"slices"
	"sort"

	"kifmm/internal/geom"
	"kifmm/internal/morton"
)

// This file keeps the comparison-sort, map-indexed builders that Build,
// Assemble and BuildLists replaced, as the oracle the new ones must match
// element for element. The one edit is sort.SliceStable for sort.Slice in
// oracleBuild: points in one finest-level cell (ties) keep their input
// order, the order Build documents.

// oracleTree is a Tree with the key → node map the oracle builders index by.
type oracleTree struct {
	*Tree
	index map[morton.Key]int32
}

// oracleBuild is the comparison-sort Build.
func oracleBuild(pts []geom.Point, q, maxDepth int) *Tree {
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
	sort.SliceStable(pks, func(i, j int) bool { return morton.Compare(pks[i].key, pks[j].key) < 0 })

	t := oracleTree{Tree: &Tree{
		Points: make([]geom.Point, len(pts)),
		Perm:   make([]int, len(pts)),
	}, index: make(map[morton.Key]int32)}
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
	t.oracleFinish()
	return t.Tree
}

// oracleAssemble is the map-indexed Assemble.
func oracleAssemble(specs []OctantSpec) *Tree {
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
	keys = slices.Compact(keys)

	t := oracleTree{Tree: &Tree{}, index: make(map[morton.Key]int32, len(keys))}
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
	t.oracleFinish()
	return t.Tree
}

// oracleAdjacent is morton.Key.Adjacent as the old builders ran it.
func oracleAdjacent(k, b morton.Key) bool {
	ks, bs := int64(k.SideUnits()), int64(b.SideUnits())
	kl := [3]int64{int64(k.X), int64(k.Y), int64(k.Z)}
	bl := [3]int64{int64(b.X), int64(b.Y), int64(b.Z)}
	closed, open := true, true
	for d := 0; d < 3; d++ {
		kh, bh := kl[d]+ks, bl[d]+bs
		if kl[d] > bh || bl[d] > kh {
			closed = false
			break
		}
		if kl[d] >= bh || bl[d] >= kh {
			open = false
		}
	}
	return closed && !open
}

// oracleIndex builds the key → node map the old Index read.
func oracleIndex(t *Tree) map[morton.Key]int32 {
	m := make(map[morton.Key]int32, len(t.Nodes))
	for i := range t.Nodes {
		m[t.Nodes[i].Key] = int32(i)
	}
	return m
}

// addNode appends a node and wires it to its parent.
func (t oracleTree) addNode(key morton.Key, parent int32) int32 {
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

// oracleFinish populates the leaf list.
func (t oracleTree) oracleFinish() {
	t.Leaves = t.Leaves[:0]
	for i := range t.Nodes {
		if t.Nodes[i].IsLeaf {
			t.Leaves = append(t.Leaves, int32(i))
		}
	}
}

// oracleBuildLists is the per-node-append BuildLists.
func oracleBuildLists(t *Tree, sel func(n *Node) bool) {
	if sel == nil {
		sel = func(*Node) bool { return true }
	}
	colleagues := oracleColleagueSets(t)

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
			oracleBuildV(t, int32(i), colleagues)
			oracleBuildX(t, int32(i), colleagues)
		}
		if n.IsLeaf {
			oracleBuildUW(t, int32(i), colleagues)
		}
	}
}

func oracleColleagueSets(t *Tree) [][]int32 {
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
				if cj == int32(i) || oracleAdjacent(t.Nodes[cj].Key, n.Key) {
					set = append(set, cj)
				}
			}
		}
		cc[i] = set
	}
	return cc
}

func oracleBuildV(t *Tree, i int32, cc [][]int32) {
	n := &t.Nodes[i]
	for _, pj := range cc[n.Parent] {
		for _, cj := range t.Nodes[pj].Children {
			if cj == NoNode || cj == i {
				continue
			}
			if !oracleAdjacent(t.Nodes[cj].Key, n.Key) {
				n.V = append(n.V, cj)
			}
		}
	}
}

func oracleBuildUW(t *Tree, i int32, cc [][]int32) {
	n := &t.Nodes[i]
	n.U = append(n.U, i) // β itself

	anc := i
	for anc != NoNode {
		for _, g := range cc[anc] {
			if g == i {
				continue
			}
			gn := &t.Nodes[g]
			if gn.IsLeaf && oracleAdjacent(gn.Key, n.Key) {
				n.U = append(n.U, g)
			}
		}
		anc = t.Nodes[anc].Parent
	}

	var descend func(cur int32)
	descend = func(cur int32) {
		for _, cj := range t.Nodes[cur].Children {
			if cj == NoNode {
				continue
			}
			cnode := &t.Nodes[cj]
			if oracleAdjacent(cnode.Key, n.Key) {
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

func oracleBuildX(t *Tree, i int32, cc [][]int32) {
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
			if oracleAdjacent(gn.Key, pKey) && !oracleAdjacent(gn.Key, n.Key) {
				n.X = append(n.X, g)
			}
		}
		anc = t.Nodes[anc].Parent
	}
}
