package kifmm

import (
	"math/rand"
	"testing"

	"kifmm/internal/geom"
	"kifmm/internal/kernel"
	"kifmm/internal/octree"
)

// TestVListAllocBudget pins the allocation counts of the FFT V-list pass on
// the standard 30k-point ellipsoid tree — the dynamic complement of fmmvet's
// static hotalloc guarantee — compiling its graph and running it warm, apart.
// Compiling happens once per engine and row range; it allocates the graph's
// task table and successor slab, the task refs and the row's group and use
// arrays, which grow by doubling (measured: 136 for 2405 tasks, body-less
// ordering tasks among them; 2173 while every task carried a closure and 8966
// while every task grew a successor slice of its own). Running it allocates
// the run's dependency counters, ready stack and workers, and a spectrum
// buffer only where a run holds more at once than any before (the engine
// keeps its buffers): the budget is the spectra held at once plus runSlack, which any per-group or per-interaction allocation in a
// body exceeds (347 groups here).
func TestVListAllocBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("30k-point engine build")
	}
	if raceEnabled {
		t.Skip("race instrumentation inflates AllocsPerRun past any budget")
	}
	e := nearFieldEngine(t, kernel.Laplace{})
	e.UseFFTM2L = true
	e.VLI() // warm the scratch and the spectrum buffers
	zeroDChk(e)
	live, peak := 0, 0 // one worker: no concurrent calls
	specHeld = func(delta int) {
		live += delta
		peak = max(peak, live)
	}
	e.VLI()
	specHeld = nil
	zeroDChk(e)
	build := testing.AllocsPerRun(1, func() { e.compile(pVLI, pVLI+1) })
	run := testing.AllocsPerRun(3, func() {
		e.VLI()
		zeroDChk(e)
	})
	const buildBudget, runSlack = 200, 48
	if build > buildBudget {
		t.Errorf("compiling the FFT V-list graph: %.0f allocations, budget %d", build, buildBudget)
	}
	if budget := peak + runSlack; run > float64(budget) {
		t.Errorf("running the warm FFT V-list graph: %.0f allocations with %d spectra held at once, budget %d", run, peak, budget)
	}
	t.Logf("FFT V-list pass: %.0f allocations compiling, %.0f running warm, %d spectra held at once", build, run, peak)
}

// TestOperatorCacheAllocs pins the warm-hit allocation count of the dense
// M2L and per-level table lookups at zero. Both sat on sync.Map once, which
// boxes every lookup key into any — one heap allocation per M2L matrix
// fetch (every dense V-list interaction) and per per-level table fetch
// (every downward translation of a non-homogeneous kernel); fmmvet's
// hotalloc analyzer surfaced both through the vliDenseNode and downwardNode
// chains.
func TestOperatorCacheAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation inflates AllocsPerRun")
	}
	ops := NewOperators(kernel.Laplace{}, 4, 1e-8)
	ops.M2LAt(2, 2, 0, 0) // build and cache the direction
	if a := testing.AllocsPerRun(100, func() { ops.M2LAt(2, 2, 0, 0) }); a != 0 {
		t.Errorf("warm M2LAt hit: %.0f allocations, want 0", a)
	}

	yuk := NewOperators(kernel.Yukawa{Lambda: 5}, 4, 1e-8)
	yuk.D2DOp(2, 3) // build and cache the per-level table
	if a := testing.AllocsPerRun(100, func() { yuk.D2DOp(2, 3) }); a != 0 {
		t.Errorf("warm non-homogeneous D2DOp hit: %.0f allocations, want 0", a)
	}
}

// TestDenseTranslationAllocs pins the per-octant bodies of the S2U, U2U and
// downward rows — the packed operator products — at zero allocations once
// warm, for a homogeneous kernel (one reference table) and a non-homogeneous
// one (per-level tables, prewarmed as Plan does).
func TestDenseTranslationAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation inflates AllocsPerRun")
	}
	pts := geom.Generate(geom.Ellipsoid, 2000, 3)
	tree := octree.Build(pts, 40, 20)
	tree.BuildLists(nil)
	for _, kern := range []kernel.Kernel{kernel.Laplace{}, kernel.Yukawa{Lambda: 5}} {
		ops := NewOperators(kern, 4, 1e-9)
		ops.PrewarmLevels(tree, 1)
		e := NewEngine(ops, tree)
		e.SetPointDensities(randDensities(rand.New(rand.NewSource(5)), len(pts), kern.SrcDim()))
		s := e.ensureScratch(1)[0]
		leaf, parent := int32(-1), int32(-1)
		for _, i := range tree.Leaves {
			if tree.Nodes[i].NPoints() > 0 && tree.Nodes[i].Parent != octree.NoNode {
				leaf, parent = i, tree.Nodes[i].Parent
				break
			}
		}
		if leaf < 0 {
			t.Fatalf("%s: no non-root leaf with points", kern.Name())
		}
		for name, body := range map[string]func(){
			"s2uLeaf":      func() { e.s2uLeaf(leaf, s) },
			"u2uNode":      func() { e.u2uNode(parent, s) },
			"downwardNode": func() { e.downwardNode(leaf, s) },
		} {
			body() // warm
			if a := testing.AllocsPerRun(50, body); a != 0 {
				t.Errorf("%s: warm %s: %.0f allocations, want 0", kern.Name(), name, a)
			}
		}
	}
}

// TestULIRowAllocs pins a warm U row's bodies at zero allocations for every
// kernel: the leaves that serve a pair both ways park the other leaf's
// partial in the engine's buffers, which the first run grows to the most
// held at once and every later run reuses.
func TestULIRowAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation inflates AllocsPerRun")
	}
	pairEveryKernel(t)
	pts := geom.Generate(geom.Ellipsoid, 3000, 3)
	tree := octree.Build(pts, 40, 20)
	tree.BuildLists(nil)
	for _, kern := range []kernel.Kernel{kernel.Laplace{}, kernel.Stokes{}, kernel.Yukawa{Lambda: 5}} {
		e := NewEngine(NewOperators(kern, 4, 1e-9), tree)
		e.SetPointDensities(randDensities(rand.New(rand.NewSource(5)), len(pts), kern.SrcDim()))
		s := e.ensureScratch(1)[0]
		row := func() {
			e.pairRows(pULI, pULI+1) // every buffer free
			for _, i := range e.pairs.order {
				e.uliLeaf(i, s)
			}
		}
		row() // warm: grows the buffers
		if a := testing.AllocsPerRun(5, row); a != 0 {
			t.Errorf("%s: warm U row: %.0f allocations, want 0", kern.Name(), a)
		}
		if pair, _, _ := pairCounts(e); pair == 0 {
			t.Fatalf("%s: the row pairs no leaves", kern.Name())
		}
	}
}
