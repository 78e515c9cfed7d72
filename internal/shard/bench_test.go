package shard

import (
	"context"
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
// R ∈ {1, 2, 4} against the single-engine plan on the same tree at the same
// Workers budget ("unsharded"), at Workers ∈ {2, 4} — the whole sharded-vs-
// unsharded comparison in one command:
//
//	GOMAXPROCS=2 go test ./internal/shard/ -run '^$' -bench BenchmarkShardedApply -count 5
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
	// run times apply after one warm call (engine free lists, spectra).
	run := func(b *testing.B, apply func() error) {
		if err := apply(); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := apply(); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(n)*float64(b.N)/b.Elapsed().Seconds(), "points/s")
	}
	for _, workers := range []int{2, 4} {
		spec := kifmm.EngineSpec{Ops: ops, Workers: workers}
		b.Run(fmt.Sprintf("workers=%d/unsharded", workers), func(b *testing.B) {
			// The root package's single-engine Apply: one engine from the
			// plan's free list over the whole tree.
			pool := spec.NewPool(tr, 0)
			run(b, func() error {
				eng := pool.Get()
				eng.SetDensitiesMasked(den, 0)
				if _, err := eng.Run(context.Background(), nil, nil); err != nil {
					return err
				}
				eng.PointPotentials()
				pool.Put(eng)
				return nil
			})
		})
		for _, R := range []int{1, 2, 4} {
			b.Run(fmt.Sprintf("workers=%d/R=%d", workers, R), func(b *testing.B) {
				p, err := BuildPlan(tr, Config{Ranks: R, Spec: spec})
				if err != nil {
					b.Fatal(err)
				}
				run(b, func() error {
					_, err := p.Apply(den)
					return err
				})
			})
		}
	}
}
