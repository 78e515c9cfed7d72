package dtree

import (
	"sort"

	"kifmm/internal/morton"
	"kifmm/internal/mpi"
	"kifmm/internal/octree"
)

const tagLETExchange = 200

// DistTree is one rank's local essential tree plus the bookkeeping needed by
// the distributed evaluation: the owned leaves, the global domain
// decomposition, and the per-rank lists of owned octants shipped as ghosts
// (used later to forward source densities for the direct interactions).
type DistTree struct {
	// Tree is the assembled LET. Owned leaves and their ancestors have
	// Local=true; received ghosts (and their filler ancestors) have
	// Local=false. Interaction lists are built for local octants.
	Tree *octree.Tree
	// Leaves are the owned leaves in Morton order.
	Leaves []Leaf
	// Part is the geometric domain decomposition Ω.
	Part *Partition
	// SentLeaves[k'] lists the owned leaf node indices whose octants were
	// shipped to rank k' during LET construction; at evaluation time their
	// densities must be forwarded to k' for its U/X-list direct sums.
	SentLeaves [][]int32
}

// BuildLET runs Algorithm 2: each rank forms B_k (owned leaves plus
// ancestors), ships every octant to the ranks whose regions intersect its
// parent's colleague neighborhood, inserts the received ghosts, assembles
// the local essential tree, and builds interaction lists for the local
// octants. Collective. A rank without a leaf ships and receives nothing:
// its LET is a bare root with no Local node, on which an engine does no
// work.
func BuildLET(c *mpi.Comm, leaves []Leaf) *DistTree {
	p, r := c.Size(), c.Rank()
	part := NewPartition(c, leaves)

	// B_k = owned leaves ∪ ancestors.
	type octInfo struct {
		isLeaf bool
		leafIx int // index into leaves when isLeaf
	}
	bk := make(map[morton.Key]octInfo, 2*len(leaves))
	for i, l := range leaves {
		bk[l.Key] = octInfo{isLeaf: true, leafIx: i}
		k := l.Key
		for k.Level() > 0 {
			k = k.Parent()
			if _, ok := bk[k]; ok {
				break
			}
			bk[k] = octInfo{isLeaf: false}
		}
	}

	// Iterate B_k in Morton order everywhere below: ghost messages and the
	// assembled spec list must be identical across runs for the engine's
	// accumulation order (and hence its bits) to be reproducible.
	bkKeys := make([]morton.Key, 0, len(bk))
	for k := range bk {
		bkKeys = append(bkKeys, k)
	}
	morton.SortKeys(bkKeys)

	// I_{kk'}: octants whose parent-colleague neighborhood touches Ω_k'.
	outgoing := make([][]ghostOctant, p)
	sentLeafKeys := make([][]morton.Key, p)
	for _, key := range bkKeys {
		info := bk[key]
		for _, k2 := range part.Users(key) {
			if k2 == r {
				continue
			}
			g := ghostOctant{Key: key, IsLeaf: info.isLeaf}
			if info.isLeaf {
				g.Pts = leaves[info.leafIx].Pts
				sentLeafKeys[k2] = append(sentLeafKeys[k2], key)
			}
			outgoing[k2] = append(outgoing[k2], g)
		}
	}
	enc := make([][]byte, p)
	for k2 := range outgoing {
		enc[k2] = encodeGhosts(outgoing[k2])
	}
	recv := c.Alltoallv(enc)

	// Merge: local octants win (they are already complete); new ghosts are
	// inserted with Local=false.
	specs := make([]octree.OctantSpec, 0, len(bk))
	for _, key := range bkKeys {
		info := bk[key]
		sp := octree.OctantSpec{Key: key, IsLeaf: info.isLeaf, Local: true}
		if info.isLeaf {
			sp.Points = leaves[info.leafIx].Pts
		}
		specs = append(specs, sp)
	}
	ghostSeen := make(map[morton.Key]bool)
	for src := 0; src < p; src++ {
		if src == r {
			continue
		}
		for _, g := range decodeGhosts(recv[src]) {
			if _, local := bk[g.Key]; local {
				continue
			}
			if ghostSeen[g.Key] {
				continue
			}
			ghostSeen[g.Key] = true
			specs = append(specs, octree.OctantSpec{
				Key: g.Key, IsLeaf: g.IsLeaf, Local: false, Points: g.Pts,
			})
		}
	}
	tree := octree.Assemble(specs)

	// Local marking: owned leaves and their ancestors only. (Assemble
	// defaults implicit ancestors—including those of ghosts—to Local.)
	for i := range tree.Nodes {
		tree.Nodes[i].Local = false
	}
	for _, l := range leaves {
		idx, ok := tree.Index(l.Key)
		if !ok {
			panic("dtree: owned leaf missing from assembled LET")
		}
		for idx != octree.NoNode && !tree.Nodes[idx].Local {
			tree.Nodes[idx].Local = true
			idx = tree.Nodes[idx].Parent
		}
	}

	tree.BuildLists(func(n *octree.Node) bool { return n.Local })

	dt := &DistTree{Tree: tree, Leaves: leaves, Part: part, SentLeaves: make([][]int32, p)}
	for k2 := 0; k2 < p; k2++ {
		for _, key := range sentLeafKeys[k2] {
			idx, _ := tree.Index(key)
			dt.SentLeaves[k2] = append(dt.SentLeaves[k2], idx)
		}
		sort.Slice(dt.SentLeaves[k2], func(a, b int) bool {
			return dt.SentLeaves[k2][a] < dt.SentLeaves[k2][b]
		})
	}
	return dt
}

// NumOwnedPoints returns the number of points in owned leaves.
func (dt *DistTree) NumOwnedPoints() int {
	n := 0
	for _, l := range dt.Leaves {
		n += len(l.Pts)
	}
	return n
}

// OwnedNodes returns the LET node index of every owned leaf, aligned with
// dt.Leaves.
func (dt *DistTree) OwnedNodes() []int32 {
	out := make([]int32, len(dt.Leaves))
	for i, l := range dt.Leaves {
		idx, ok := dt.Tree.Index(l.Key)
		if !ok {
			panic("dtree: owned leaf missing from LET")
		}
		out[i] = idx
	}
	return out
}

// SharedOctants returns the node indices of LET octants whose
// contributor∪user set spans more than one rank — the octants participating
// in the upward-density reduction (Algorithm 3). Only octants with locally
// relevant data are listed: every LET octant qualifies structurally, so this
// scans all nodes.
func (dt *DistTree) SharedOctants() []int32 {
	var out []int32
	for i := range dt.Tree.Nodes {
		key := dt.Tree.Nodes[i].Key
		contrib := dt.Part.Contributors(key)
		if len(contrib) > 1 {
			out = append(out, int32(i))
			continue
		}
		users := dt.Part.Users(key)
		if len(users) > 1 || (len(users) == 1 && (len(contrib) == 0 || users[0] != contrib[0])) {
			out = append(out, int32(i))
		}
	}
	return out
}
