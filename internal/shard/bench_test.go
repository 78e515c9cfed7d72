package shard

import (
	"fmt"
	"math/rand"
	"testing"

	"kifmm/internal/geom"
	"kifmm/internal/kernel"
	"kifmm/internal/kifmm"
	"kifmm/internal/octree"
)

// BenchmarkShardedApply measures the coordinated multi-rank apply on a
// 10⁵-point ellipsoid (the paper's surface-concentrated distribution) for
// R ∈ {1, 2, 4} and both communication backends.
func BenchmarkShardedApply(b *testing.B) {
	const n = 100_000
	kern := kernel.Laplace{}
	pts := geom.Generate(geom.Ellipsoid, n, 42)
	tr := octree.Build(pts, 100, 20)
	tr.BuildLists(nil)
	ops := kifmm.NewOperators(kern, 6, 1e-9)
	rng := rand.New(rand.NewSource(7))
	den := make([]float64, n)
	for i := range den {
		den[i] = rng.NormFloat64()
	}
	for _, backend := range []CommBackend{Hypercube, Simple} {
		for _, R := range []int{1, 2, 4} {
			b.Run(fmt.Sprintf("backend=%s/R=%d", backend.Name(), R), func(b *testing.B) {
				p, err := BuildPlan(tr, Config{
					Ranks: R, Backend: backend,
					Spec: kifmm.EngineSpec{Ops: ops, Workers: 4},
				})
				if err != nil {
					b.Fatal(err)
				}
				if _, err := p.Apply(den); err != nil { // warm engine free list
					b.Fatal(err)
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := p.Apply(den); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(n)*float64(b.N)/b.Elapsed().Seconds(), "points/s")
			})
		}
	}
}
