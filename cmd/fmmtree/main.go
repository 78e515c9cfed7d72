// Command fmmtree builds the distributed octree for a chosen configuration
// and reports its structure: leaf counts, level span, per-rank balance, and
// local-essential-tree sizes — the quantities behind the paper's tree
// construction claims (e.g. the 20+-level spread of the nonuniform runs).
package main

import (
	"flag"
	"fmt"
	"os"

	"kifmm/internal/dtree"
	"kifmm/internal/geom"
	"kifmm/internal/kernel"
	"kifmm/internal/kifmm"
	"kifmm/internal/mpi"
)

func main() {
	var (
		n        = flag.Int("n", 100000, "global point count")
		p        = flag.Int("p", 4, "rank count")
		q        = flag.Int("q", 50, "max points per leaf octant")
		dist     = flag.String("dist", "ellipsoid", "distribution: uniform or ellipsoid")
		seed     = flag.Int64("seed", 2009, "distribution seed")
		balance  = flag.Bool("balance", true, "apply work-weighted repartitioning")
		maxDepth = flag.Int("maxdepth", 24, "octree depth cap")
	)
	flag.Parse()

	var d geom.Distribution
	switch *dist {
	case "uniform":
		d = geom.Uniform
	case "ellipsoid":
		d = geom.Ellipsoid
	default:
		fmt.Fprintf(os.Stderr, "fmmtree: unknown distribution %q\n", *dist)
		os.Exit(2)
	}

	type rankReport struct {
		leaves, letNodes, ghosts, points int
		minLevel, maxLevel               int
		weight                           int64
		uLen, vLen, wLen, xLen           int
	}
	// Leaves are weighed by the engine's flop count for Laplace at order 6.
	spec := kifmm.EngineSpec{Ops: kifmm.NewOperators(kernel.Laplace{}, 6, 1e-9)}
	reports := make([]rankReport, *p)
	mpi.Run(*p, func(c *mpi.Comm) {
		pts := geom.GenerateChunk(d, *n, *seed, c.Rank(), *p)
		leaves := dtree.Points2Octree(c, pts, nil, 0, *q, *maxDepth, nil)
		dt := dtree.BuildLET(c, leaves)
		if *balance {
			w := spec.LeafWeights(dt.Tree, dt.OwnedNodes())
			leaves = dtree.RepartitionByWeight(c, leaves, w)
			dt = dtree.BuildLET(c, leaves)
		}
		rep := rankReport{leaves: len(dt.Leaves), letNodes: dt.Tree.NumNodes()}
		rep.minLevel = dt.Tree.MinLeafLevel()
		rep.maxLevel = dt.Tree.MaxLevel()
		for i := range dt.Tree.Nodes {
			if !dt.Tree.Nodes[i].Local {
				rep.ghosts++
			}
		}
		rep.points = dt.NumOwnedPoints()
		for _, w := range spec.LeafWeights(dt.Tree, dt.OwnedNodes()) {
			rep.weight += w
		}
		for i := range dt.Tree.Nodes {
			n := &dt.Tree.Nodes[i]
			rep.uLen += len(n.U)
			rep.vLen += len(n.V)
			rep.wLen += len(n.W)
			rep.xLen += len(n.X)
		}
		reports[c.Rank()] = rep
	})

	fmt.Printf("distributed octree: n=%d p=%d q=%d dist=%s balance=%v\n",
		*n, *p, *q, *dist, *balance)
	fmt.Printf("%5s %10s %10s %10s %10s %8s %8s %14s\n",
		"rank", "points", "leaves", "LET", "ghosts", "minlvl", "maxlvl", "flops")
	var totLeaves, totPts int
	for r, rep := range reports {
		fmt.Printf("%5d %10d %10d %10d %10d %8d %8d %14d\n",
			r, rep.points, rep.leaves, rep.letNodes, rep.ghosts,
			rep.minLevel, rep.maxLevel, rep.weight)
		totLeaves += rep.leaves
		totPts += rep.points
	}
	fmt.Printf("total: %d points in %d leaves\n", totPts, totLeaves)
	fmt.Printf("%5s %10s %10s %10s %10s\n", "rank", "U-pairs", "V-pairs", "W-pairs", "X-pairs")
	for r, rep := range reports {
		fmt.Printf("%5d %10d %10d %10d %10d\n", r, rep.uLen, rep.vLen, rep.wLen, rep.xLen)
	}
}
