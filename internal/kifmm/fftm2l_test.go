package kifmm

import (
	"math"
	"math/rand"
	"testing"

	"kifmm/internal/geom"
	"kifmm/internal/kernel"
	"kifmm/internal/octree"
)

// hadamardScalarRef is the straightforward scalar reference of the Hadamard
// micro-kernel, with the identical per-element expression.
func hadamardScalarRef(acc, tf, src []float64, sd, td, hl int) {
	for t := 0; t < td; t++ {
		ar := acc[t*2*hl : t*2*hl+hl]
		ai := acc[t*2*hl+hl : (t+1)*2*hl]
		for s := 0; s < sd; s++ {
			o := (t*sd + s) * 2 * hl
			tr, ti := tf[o:o+hl], tf[o+hl:o+2*hl]
			sr, si := src[s*2*hl:s*2*hl+hl], src[s*2*hl+hl:(s+1)*2*hl]
			for i := 0; i < hl; i++ {
				ar[i] += tr[i]*sr[i] - ti[i]*si[i]
				ai[i] += tr[i]*si[i] + ti[i]*sr[i]
			}
		}
	}
}

// TestHadamardMatchesScalarReference: the register-blocked micro-kernel must
// be bit-identical to the scalar loop (same per-element expression), for
// scalar and multi-component shapes and for odd panel lengths (remainder
// lane).
func TestHadamardMatchesScalarReference(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	cases := []struct{ sd, td, hl int }{
		{1, 1, 1008}, {1, 1, 7}, {3, 3, 100}, {3, 3, 33}, {1, 3, 50},
	}
	for _, c := range cases {
		acc := make([]float64, c.td*2*c.hl)
		ref := make([]float64, c.td*2*c.hl)
		tf := make([]float64, c.td*c.sd*2*c.hl)
		src := make([]float64, c.sd*2*c.hl)
		for i := range acc {
			acc[i] = rng.NormFloat64()
			ref[i] = acc[i]
		}
		for i := range tf {
			tf[i] = rng.NormFloat64()
		}
		for i := range src {
			src[i] = rng.NormFloat64()
		}
		Hadamard(acc, tf, src, c.sd, c.td, c.hl)
		hadamardScalarRef(ref, tf, src, c.sd, c.td, c.hl)
		for i := range acc {
			if acc[i] != ref[i] {
				t.Fatalf("sd=%d td=%d hl=%d: micro-kernel differs from scalar reference at %d: %v vs %v",
					c.sd, c.td, c.hl, i, acc[i], ref[i])
			}
		}
	}
}

// dchkRelErr is the global relative L2 difference over all DChk vectors.
func dchkRelErr(a, b *Engine) float64 {
	var num, den float64
	for i := range a.DChk {
		for j := range a.DChk[i] {
			d := a.DChk[i][j] - b.DChk[i][j]
			num += d * d
			den += b.DChk[i][j] * b.DChk[i][j]
		}
	}
	if den == 0 {
		return math.Sqrt(num)
	}
	return math.Sqrt(num / den)
}

// TestVListOneBody pins the V-list contract for every kernel on uniform and
// ellipsoid trees, symmetric and Targets-masked (the leading third of the
// points are zero-density targets, the rest sources):
//
//   - barrier ≡ task graph, bit for bit: both drivers run vliFFTNode, which
//     accumulates each target in ascending direction order;
//   - FFT ≡ dense M2L oracle to 1e-12 (same linear operator, FFT roundoff);
//   - an engine reused with new densities ≡ a fresh engine, bit for bit
//     (no state survives in the chunk spectrum buffer). Reuse across a
//     tree that grows between Applies is session.TestStepMatchesFreshPlan.
func TestVListOneBody(t *testing.T) {
	kernels := []struct {
		name string
		kern kernel.Kernel
		p    int
	}{
		{"laplace", kernel.Laplace{}, 6},
		{"stokes", kernel.Stokes{}, 4},
		{"yukawa", kernel.Yukawa{Lambda: 5}, 4},
	}
	dists := []struct {
		name string
		dist geom.Distribution
	}{
		{"uniform", geom.Uniform},
		{"ellipsoid", geom.Ellipsoid},
	}
	const n, q, workers = 800, 15, 4
	for _, kc := range kernels {
		ops := NewOperators(kc.kern, kc.p, 1e-9)
		for _, dc := range dists {
			tr := octree.Build(geom.Generate(dc.dist, n, 42), q, 20)
			tr.BuildLists(nil)
			for _, nLead := range []int{0, n / 3} {
				name := kc.name + "/" + dc.name + "/symmetric"
				if nLead > 0 {
					name = kc.name + "/" + dc.name + "/masked"
				}
				t.Run(name, func(t *testing.T) {
					rng := rand.New(rand.NewSource(7))
					den1 := randDensities(rng, n-nLead, kc.kern.SrcDim())
					den2 := randDensities(rng, n-nLead, kc.kern.SrcDim())
					mk := func(useFFT bool, den []float64) *Engine {
						e := NewEngine(ops, tr)
						e.UseFFTM2L = useFFT
						e.Workers = workers
						e.SetSplitRoles(nLead)
						e.SetDensitiesMasked(den, nLead)
						return e
					}
					// vOnly leaves pure V-list contributions in DChk.
					vOnly := func(useFFT bool) *Engine {
						e := mk(useFFT, den1)
						e.S2U()
						e.U2U()
						e.VLI()
						return e
					}

					barrier, dag := mk(true, den1), mk(true, den1)
					barrier.Evaluate()
					if _, err := dag.EvaluateDAG(nil); err != nil {
						t.Fatal(err)
					}
					bitIdentical(t, "barrier vs DAG Potential", dag.Potential, barrier.Potential)
					for i := range barrier.DChk {
						bitIdentical(t, "barrier vs DAG DChk", dag.DChk[i], barrier.DChk[i])
					}

					if err := dchkRelErr(vOnly(true), vOnly(false)); err > 1e-12 {
						t.Errorf("FFT V-list vs dense oracle rel err %g > 1e-12", err)
					}

					barrier.Reset()
					barrier.SetDensitiesMasked(den2, nLead)
					barrier.Evaluate()
					fresh := mk(true, den2)
					fresh.Evaluate()
					bitIdentical(t, "reused vs fresh engine", barrier.Potential, fresh.Potential)
				})
			}
		}
	}
}

// TestVListChunkedBarrier runs the barrier driver on a level with more V
// sources than vLiveBytes holds, so its targets split into several chunks
// that re-transform shared sources: the result must stay bit-identical to
// the task graph (one refcounted spectrum per source, no chunks) and the
// engine's spectrum buffer must stay within the bound.
func TestVListChunkedBarrier(t *testing.T) {
	if testing.Short() {
		t.Skip("4096-octant level at order 6")
	}
	ops := NewOperators(kernel.Laplace{}, 6, 1e-9)
	const n = 12000
	tr := octree.Build(geom.Generate(geom.Uniform, n, 3), 6, 20)
	tr.BuildLists(nil)
	den := randDensities(rand.New(rand.NewSource(5)), n, 1)
	mk := func() *Engine {
		e := NewEngine(ops, tr)
		e.UseFFTM2L = true
		e.Workers = 4
		e.SetDensitiesMasked(den, 0)
		return e
	}
	barrier, dag := mk(), mk()
	limit := vLiveBytes / (8 * ops.FFT().SpecLen())
	widest := 0
	for _, nodes := range barrier.nodesByLevel() {
		widest = max(widest, len(nodes))
	}
	if widest <= limit+189 {
		t.Fatalf("widest level has %d octants, want > %d to force chunking", widest, limit+189)
	}
	barrier.Evaluate()
	if _, err := dag.EvaluateDAG(nil); err != nil {
		t.Fatal(err)
	}
	bitIdentical(t, "chunked barrier vs DAG", dag.Potential, barrier.Potential)
	if got := cap(barrier.vbuf) * 8; got > vLiveBytes {
		t.Errorf("spectrum buffer holds %d bytes, bound is %d", got, vLiveBytes)
	}
}
