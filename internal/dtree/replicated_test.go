package dtree

import (
	"testing"

	"kifmm/internal/geom"
	"kifmm/internal/mpi"
)

func TestReplicatedListsMatchGlobalTree(t *testing.T) {
	const n, p = 1200, 4
	chunks := runDistributed(t, geom.Ellipsoid, n, p, 15)
	ref := buildReference(chunks)
	mpi.Run(p, func(c *mpi.Comm) {
		dt, traffic := BuildReplicated(c, chunks[c.Rank()])
		if traffic <= 0 {
			t.Errorf("no traffic recorded")
			return
		}
		if err := dt.Tree.Validate(); err != nil {
			t.Errorf("invalid replicated tree: %v", err)
			return
		}
		// The replicated tree holds every global octant.
		if dt.Tree.NumNodes() != ref.NumNodes() {
			t.Errorf("replicated tree has %d nodes, reference %d",
				dt.Tree.NumNodes(), ref.NumNodes())
			return
		}
		for i := range dt.Tree.Nodes {
			nd := &dt.Tree.Nodes[i]
			if !nd.Local {
				continue
			}
			ri, ok := ref.Index(nd.Key)
			if !ok {
				t.Errorf("octant missing from reference")
				return
			}
			rn := &ref.Nodes[ri]
			for name, pair := range map[string][2][]int32{
				"U": {nd.U, rn.U}, "V": {nd.V, rn.V}, "W": {nd.W, rn.W}, "X": {nd.X, rn.X},
			} {
				if !sameKeySet(keySetOf(dt.Tree, pair[0]), keySetOf(ref, pair[1])) {
					t.Errorf("replicated %s-list differs at %v", name, nd.Key)
					return
				}
			}
		}
	})
}

func TestReplicatedTrafficExceedsLET(t *testing.T) {
	// The point of the LET: per-rank construction traffic is a boundary
	// term, not the whole tree.
	const n, p = 4000, 8
	chunks := runDistributed(t, geom.Uniform, n, p, 20)
	letBytes := make([]int64, p)
	repBytes := make([]int64, p)
	mpi.Run(p, func(c *mpi.Comm) {
		before := c.Stats().Snap()
		BuildLET(c, chunks[c.Rank()])
		letBytes[c.Rank()] = before.Delta(c.Stats().Snap()).Bytes
	})
	mpi.Run(p, func(c *mpi.Comm) {
		_, repBytes[c.Rank()] = BuildReplicated(c, chunks[c.Rank()])
	})
	var letMax, repMax int64
	for r := 0; r < p; r++ {
		if letBytes[r] > letMax {
			letMax = letBytes[r]
		}
		if repBytes[r] > repMax {
			repMax = repBytes[r]
		}
	}
	if letMax >= repMax {
		t.Fatalf("LET traffic (%d B) should be below replicated (%d B)", letMax, repMax)
	}
}
