package experiments

import (
	"math"
	"math/rand"
	"testing"

	"kifmm/internal/geom"
	"kifmm/internal/gpu"
	"kifmm/internal/kernel"
	"kifmm/internal/kifmm"
	"kifmm/internal/mpi"
	"kifmm/internal/parfmm"
)

func TestDistributedWithGPUAcceleration(t *testing.T) {
	// Each rank drives its own streaming device (the paper's one GPU per
	// MPI process configuration); results must match the direct sum at
	// single-precision accuracy.
	const n, p = 1000, 4
	ops := kifmm.SharedOperators.Get(kernel.Laplace{}, 6, 1e-9, 2)
	cfg := parfmm.Config{Q: 60, Spec: kifmm.EngineSpec{Ops: ops, Workers: 2, DenseM2L: true}}
	pts := geom.Generate(geom.Uniform, n, 19)
	rng := rand.New(rand.NewSource(19 * 31))
	den := make([]float64, n)
	for i := range den {
		den[i] = rng.NormFloat64()
	}
	want := kernel.Direct(ops.Kern, pts, pts, den)

	engines := make([]*kifmm.Engine, p)
	results := make([]*parfmm.Result, p)
	accels := make([]*gpu.FMMAccel, p)
	mpi.Run(p, func(c *mpi.Comm) {
		r := c.Rank()
		lo, hi := r*n/p, (r+1)*n/p
		engines[r], results[r], accels[r] = deviceRank(c, pts[lo:hi], den[lo:hi], cfg)
	})
	// Setup redistributed the points: match owned potentials by coordinates.
	got := make(map[geom.Point]float64, n)
	for r, res := range results {
		tr := res.Tree.Tree
		for _, l := range res.Tree.Leaves {
			idx, _ := tr.Index(l.Key)
			for pt := tr.Nodes[idx].PtLo; pt < tr.Nodes[idx].PtHi; pt++ {
				got[tr.Points[pt]] = engines[r].Potential[pt]
			}
		}
	}
	if len(got) != n {
		t.Fatalf("point sets differ: %d vs %d", len(got), n)
	}
	var num, den2 float64
	for i, pt := range pts {
		d := got[pt] - want[i]
		num += d * d
		den2 += want[i] * want[i]
	}
	if err := math.Sqrt(num / den2); err > 5e-4 {
		t.Fatalf("gpu-distributed: rel err %g > 5e-4", err)
	}

	// Every device must have done real work with modeled time recorded.
	for r, a := range accels {
		if a.ModeledTotal() <= 0 {
			t.Fatalf("rank %d device recorded no modeled time", r)
		}
		if a.TranslationBytes == 0 {
			t.Fatalf("rank %d recorded no data-structure translation", r)
		}
	}
}
