package dtree

import (
	"kifmm/internal/mpi"
	"kifmm/internal/octree"
)

// BuildReplicated is the baseline the paper's LET construction replaced:
// every rank gathers a lightweight copy of the ENTIRE global tree (the
// SC'03 approach, which "became problematic above 2048 MPI-processes").
// Each rank allgathers all leaves with their points and assembles the full
// global tree with all interaction lists. Returned is a DistTree whose LET
// is the whole tree; ReplicatedBytes reports the per-rank traffic, which
// grows as O(n) instead of the LET's O((n/p)^(2/3)·boundary) — the
// scalability gap the ablation benchmark quantifies. Collective.
func BuildReplicated(c *mpi.Comm, leaves []Leaf) (*DistTree, int64) {
	p, r := c.Size(), c.Rank()
	part := NewPartition(c, leaves)

	before := c.Stats().Snap()
	gathered := c.AllGather(encodeLeaves(leaves))
	traffic := before.Delta(c.Stats().Snap()).Bytes

	var specs []octree.OctantSpec
	for src := 0; src < p; src++ {
		for _, l := range decodeLeaves(gathered[src]) {
			specs = append(specs, octree.OctantSpec{
				Key:    l.Key,
				IsLeaf: true,
				Local:  src == r,
				Points: l.Pts,
			})
		}
	}
	tree := octree.Assemble(specs)
	// Ancestors of owned leaves are local, as in the LET.
	for i := range tree.Nodes {
		if tree.Nodes[i].IsLeaf {
			continue
		}
		tree.Nodes[i].Local = false
	}
	for _, l := range leaves {
		idx, _ := tree.Index(l.Key)
		for idx != octree.NoNode && !tree.Nodes[idx].Local {
			tree.Nodes[idx].Local = true
			idx = tree.Nodes[idx].Parent
		}
	}
	tree.BuildLists(func(n *octree.Node) bool { return n.Local })

	dt := &DistTree{Tree: tree, Leaves: leaves, Part: part, SentLeaves: make([][]int32, p)}
	// Every rank holds every leaf, so density forwarding sends each owned
	// leaf to every other rank.
	for k2 := 0; k2 < p; k2++ {
		if k2 == r {
			continue
		}
		for _, l := range leaves {
			idx, _ := tree.Index(l.Key)
			dt.SentLeaves[k2] = append(dt.SentLeaves[k2], idx)
		}
	}
	return dt, traffic
}
