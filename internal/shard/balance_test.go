package shard

import (
	"testing"

	"kifmm/internal/diag"
	"kifmm/internal/geom"
	"kifmm/internal/kernel"
	"kifmm/internal/kifmm"
	"kifmm/internal/mpi"
	"kifmm/internal/parfmm"
	"kifmm/internal/reduce"
)

// TestRankFlopsBalanced holds a sharded plan's cut to the flops its ranks
// then count: on 4 000 uniform points (q 50, order 6, 4 ranks) each rank is
// run through parfmm.EvaluateRank, and the flops of its own record must be
// within 5 % of the ranks' mean, for Laplace and Yukawa.
func TestRankFlopsBalanced(t *testing.T) {
	const ranks, bound = 4, 1.05
	for _, kern := range []kernel.Kernel{kernel.Laplace{}, kernel.Yukawa{Lambda: 5}} {
		tr, ops, den := buildCase(t, kern, geom.Uniform, 4000, 50, 6)
		p, err := BuildPlan(tr, Config{Ranks: ranks, Spec: kifmm.EngineSpec{Ops: ops, Workers: ranks}})
		if err != nil {
			t.Fatal(err)
		}
		flops := make([]int64, ranks)
		mpi.Run(ranks, func(c *mpi.Comm) {
			rs := p.ranks[c.Rank()]
			eng := rs.engines.Get()
			placeDensities(rs, eng, den, p.sd)
			rec, _, _, _ := parfmm.EvaluateRank(c, eng, rs.dt, reduce.Simple)
			for _, ph := range []string{diag.PhaseUpward, diag.PhaseVList, diag.PhaseXList,
				diag.PhaseDownward, diag.PhaseWList, diag.PhaseUList} {
				_, f := rec.Phase(ph)
				flops[c.Rank()] += f
			}
		})
		var mx, sum int64
		for _, f := range flops {
			mx, sum = max(mx, f), sum+f
		}
		mean := float64(sum) / ranks
		if r := float64(mx) / mean; r > bound {
			t.Errorf("%s: rank flops %v: max/mean %.3f > %.2f", kern.Name(), flops, r, bound)
		} else {
			t.Logf("%s: rank flops %v: max/mean %.3f", kern.Name(), flops, r)
		}
	}
}
