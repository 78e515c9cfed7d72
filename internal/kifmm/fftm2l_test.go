package kifmm

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"kifmm/internal/geom"
	"kifmm/internal/kernel"
	"kifmm/internal/morton"
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
//   - barrier ≡ task graph, bit for bit: both drivers run vliFFTGroup, which
//     accumulates each target in vOrder's geometric order;
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
	for _, nodes := range barrier.work(&phases[pVLI]) {
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

// TestVListGroupOrder pins what lets one per-sibling-group body serve both
// drivers: per target, the accumulation order is vOrder's — a function of the
// two Morton keys — and not of the group the target happens to run in.
func TestVListGroupOrder(t *testing.T) {
	// (b) For an interior parent, the sources of each child's full 189-entry
	// V list land on distinct (parent direction, source octant) slots — at
	// most 27·8 = 216 — so the order is total per target; the key's low
	// three bits are the target's octant, its translation is the pair's
	// dirSlot, and one parent pair draws on at most 27 distinct translations.
	t.Run("key", func(t *testing.T) {
		const level = 4
		u := morton.Root().FirstDescendant(level).SideUnits()
		parent := morton.Key{X: 6 * u, Y: 8 * u, Z: 4 * u, L: level - 1}
		slotsOfPair := map[int]map[int]bool{}
		for to, trg := range parent.Children() {
			seen := map[int]bool{}
			for dx := -3; dx <= 3; dx++ {
				for dy := -3; dy <= 3; dy++ {
					for dz := -3; dz <= 3; dz++ {
						src := morton.Key{X: trg.X - uint32(dx)*u, Y: trg.Y - uint32(dy)*u, Z: trg.Z - uint32(dz)*u, L: level}
						if maxAbs3(dx, dy, dz) <= 1 || !src.Parent().Adjacent(parent) {
							continue // adjacent to the target, or not a child of a parent's neighbour
						}
						order, slot := vOrder(src, trg)
						if slot != dirSlot(dx, dy, dz) {
							t.Fatalf("target octant %d dir (%d,%d,%d): slot %d, want dirSlot %d", to, dx, dy, dz, slot, dirSlot(dx, dy, dz))
						}
						if order&7 != to || order>>3&7 != src.ChildIndex() || order>>6 >= 27 {
							t.Fatalf("target octant %d dir (%d,%d,%d): order %d does not decode to (pair < 27, source octant %d, target octant %d)",
								to, dx, dy, dz, order, src.ChildIndex(), to)
						}
						if seen[order>>3] {
							t.Fatalf("target octant %d: two sources share order slot %d", to, order>>3)
						}
						seen[order>>3] = true
						if slotsOfPair[order>>6] == nil {
							slotsOfPair[order>>6] = map[int]bool{}
						}
						slotsOfPair[order>>6][slot] = true
					}
				}
			}
			if len(seen) != 189 {
				t.Fatalf("target octant %d: %d V directions enumerated, want 189", to, len(seen))
			}
		}
		for pair, slots := range slotsOfPair {
			if len(slots) > 27 {
				t.Errorf("parent pair %d touches %d translation spectra, want ≤ 27", pair, len(slots))
			}
		}
	})

	// (a) A group evaluated whole ≡ the same targets evaluated as two
	// disjoint partial groups: what the barrier driver does to a sibling
	// group that straddles a vLiveBytes chunk boundary.
	t.Run("split", func(t *testing.T) {
		ops := NewOperators(kernel.Stokes{}, 4, 1e-9)
		const n = 3000
		tr := octree.Build(geom.Generate(geom.Uniform, n, 11), 10, 20)
		tr.BuildLists(nil)
		den := randDensities(rand.New(rand.NewSource(3)), n, 3)
		f := ops.FFT()
		run := func(split bool) *Engine {
			e := NewEngine(ops, tr)
			e.UseFFTM2L = true
			e.SetDensitiesMasked(den, 0)
			e.S2U()
			e.U2U()
			s := e.ensureScratch(1)[0]
			spec := make([][]float64, len(tr.Nodes))
			for i := range spec {
				spec[i] = f.SourceSpectrum(e.U[i])
			}
			tables := vTables{f: f, workers: 1}
			groups := 0
			for p := range tr.Nodes {
				var grp []int32
				for _, c := range tr.Nodes[p].Children {
					if !tr.Nodes[p].IsLeaf && c != octree.NoNode && len(tr.Nodes[c].V) > 0 {
						grp = append(grp, c)
					}
				}
				if len(grp) < 2 {
					continue
				}
				groups++
				tb := tables.at(tr.Nodes[grp[0]].Key.Level())
				if split {
					cut := 1 + p%(len(grp)-1)
					e.vliFFTGroup(grp[cut:], f, tb, spec, s)
					e.vliFFTGroup(grp[:cut], f, tb, spec, s)
				} else {
					e.vliFFTGroup(grp, f, tb, spec, s)
				}
			}
			if groups < 50 {
				t.Fatalf("only %d sibling groups with ≥ 2 targets", groups)
			}
			return e
		}
		whole, parts := run(false), run(true)
		for i := range whole.DChk {
			bitIdentical(t, fmt.Sprintf("DChk[%d] whole vs split group", i), parts.DChk[i], whole.DChk[i])
		}
	})

	// (c) DAG ≡ barrier at every worker count, masked and symmetric: worker
	// counts change which groups run concurrently and on which scratch,
	// never a target's order.
	t.Run("drivers", func(t *testing.T) {
		const n, q = 800, 15
		tr := octree.Build(geom.Generate(geom.Ellipsoid, n, 42), q, 20)
		tr.BuildLists(nil)
		for _, kc := range []struct {
			name string
			kern kernel.Kernel
		}{{"laplace", kernel.Laplace{}}, {"stokes", kernel.Stokes{}}, {"yukawa", kernel.Yukawa{Lambda: 5}}} {
			ops := NewOperators(kc.kern, 4, 1e-9)
			for _, nLead := range []int{0, n / 3} {
				den := randDensities(rand.New(rand.NewSource(9)), n-nLead, kc.kern.SrcDim())
				var ref *Engine
				for _, workers := range []int{1, 2, 4} {
					for _, dag := range []bool{false, true} {
						e := NewEngine(ops, tr)
						e.UseFFTM2L = true
						e.Workers = workers
						e.SetSplitRoles(nLead)
						e.SetDensitiesMasked(den, nLead)
						if dag {
							if _, err := e.EvaluateDAG(nil); err != nil {
								t.Fatal(err)
							}
						} else {
							e.Evaluate()
						}
						if ref == nil {
							ref = e
							continue
						}
						label := fmt.Sprintf("%s nLead=%d workers=%d dag=%v vs barrier workers=1", kc.name, nLead, workers, dag)
						bitIdentical(t, label, e.Potential, ref.Potential)
					}
				}
			}
		}
	})
}
