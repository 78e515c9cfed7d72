package kifmm

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"

	"kifmm/internal/geom"
	"kifmm/internal/kernel"
	"kifmm/internal/morton"
	"kifmm/internal/octree"
)

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
//   - sequential oracle ≡ task graph at 1, 2 and 4 workers, bit for bit: both
//     run vliFFTGroup, which accumulates each target in vOrder's geometric
//     order;
//   - FFT ≡ dense M2L oracle to 1e-12 (same linear operator, FFT roundoff);
//   - an engine reused with new densities ≡ a fresh engine, bit for bit
//     (no state survives in a reused spectrum buffer).
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
	const n, q = 800, 15
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
					mk := func(useFFT bool, den []float64, workers int) *Engine {
						e := NewEngine(ops, tr)
						e.UseFFTM2L = useFFT
						e.Workers = workers
						e.SetSplitRoles(nLead)
						e.SetDensitiesMasked(den, nLead)
						return e
					}
					// vOnly leaves pure V-list contributions in DChk.
					vOnly := func(useFFT bool) *Engine {
						e := mk(useFFT, den1, 4)
						e.S2U()
						e.U2U()
						e.VLI()
						return e
					}

					oracle := mk(true, den1, 1)
					oracle.oracle()
					var dag *Engine
					for _, workers := range graphWorkers {
						dag = mk(true, den1, workers)
						dag.Evaluate()
						label := fmt.Sprintf("graph w%d vs oracle", workers)
						bitIdentical(t, label+" Potential", dag.Potential, oracle.Potential)
						for i := range oracle.DChk {
							bitIdentical(t, label+" DChk", dag.DChk[i], oracle.DChk[i])
						}
					}

					if err := dchkRelErr(vOnly(true), vOnly(false)); err > 1e-12 {
						t.Errorf("FFT V-list vs dense oracle rel err %g > 1e-12", err)
					}

					dag.Reset()
					dag.SetDensitiesMasked(den2, nLead)
					dag.Evaluate()
					fresh := mk(true, den2, 4)
					fresh.Evaluate()
					bitIdentical(t, "reused vs fresh engine", dag.Potential, fresh.Potential)
				})
			}
		}
	}
}

// TestVListSpectrumWindow pins the V row's spectrum footprint on a tree whose
// finest level has 4096 octants: at 1 and 2 workers the row holds at once
// (counted through specHeld) far fewer source spectra than it transforms —
// the vWindow gate, not the whole row — and the result stays bit-identical to
// the sequential oracle.
func TestVListSpectrumWindow(t *testing.T) {
	if testing.Short() {
		t.Skip("4096-octant level")
	}
	ops := NewOperators(kernel.Laplace{}, 4, 1e-9)
	const n = 12000
	tr := octree.Build(geom.Generate(geom.Uniform, n, 3), 6, 20)
	tr.BuildLists(nil)
	den := randDensities(rand.New(rand.NewSource(5)), n, 1)
	mk := func(workers int) *Engine {
		e := NewEngine(ops, tr)
		e.UseFFTM2L = true
		e.Workers = workers
		e.SetDensitiesMasked(den, 0)
		return e
	}
	var mu sync.Mutex
	var live, peak int
	specHeld = func(delta int) {
		mu.Lock()
		live += delta
		peak = max(peak, live)
		mu.Unlock()
	}
	defer func() { specHeld = nil }()
	oracle := mk(1)
	oracle.oracle()
	srcs := map[int32]bool{}
	for _, level := range oracle.work(&phases[pVLI]) {
		for _, i := range level {
			for _, a := range tr.Nodes[i].V {
				srcs[a] = true
			}
		}
	}
	if len(srcs) < 4096 {
		t.Fatalf("%d V sources, want a level of 4096 octants", len(srcs))
	}
	for _, workers := range []int{1, 2} {
		e := mk(workers)
		live, peak = 0, 0
		e.Evaluate()
		bitIdentical(t, fmt.Sprintf("graph w%d vs oracle", workers), e.Potential, oracle.Potential)
		held := peak
		t.Logf("workers %d: at most %d spectra held for %d sources", workers, held, len(srcs))
		if live != 0 {
			t.Errorf("workers %d: %d spectra still held after the row", workers, live)
		}
		if held <= 0 || held > len(srcs)/3 {
			t.Errorf("workers %d: the V row held %d spectra at once, want at most a third of its %d sources",
				workers, held, len(srcs))
		}
	}
}

// TestVListGroupOrder pins what lets one per-sibling-group body serve every
// schedule: per target, the accumulation order is vOrder's — a function of
// the two Morton keys — and not of the group the target happens to run in.
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
	// disjoint partial groups: what the oracle would do to a sibling group
	// whose members are not adjacent in node order.
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
				tb := ops.vTable(tr.Nodes[grp[0]].Key.Level(), 1)
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

	// (c) Graph ≡ sequential oracle at every worker count, masked and
	// symmetric: worker counts change which groups run concurrently and on
	// which scratch, never a target's order.
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
				mk := func(workers int) *Engine {
					e := NewEngine(ops, tr)
					e.UseFFTM2L = true
					e.Workers = workers
					e.SetSplitRoles(nLead)
					e.SetDensitiesMasked(den, nLead)
					return e
				}
				ref := mk(1)
				ref.oracle()
				for _, workers := range graphWorkers {
					e := mk(workers)
					if _, err := e.EvaluateDAG(nil); err != nil {
						t.Fatal(err)
					}
					label := fmt.Sprintf("%s nLead=%d graph workers=%d vs oracle", kc.name, nLead, workers)
					bitIdentical(t, label, e.Potential, ref.Potential)
				}
			}
		}
	})
}
