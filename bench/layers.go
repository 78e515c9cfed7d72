package main

// This file is the benchmark's only window into kifmm/internal/... (other
// than internal/service, the wire of serve_cycle): the accuracy oracle,
// and the traced run, which takes the steps of New + Plan + Apply one
// exported call at a time with a span around each. A later change that
// moves the spans into the program replaces this file alone.

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"kifmm"
	"kifmm/internal/diag"
	"kifmm/internal/geom"
	"kifmm/internal/kernel"
	ikifmm "kifmm/internal/kifmm"
	"kifmm/internal/octree"
)

func kernelFor(name kifmm.KernelName, lambda float64) kernel.Kernel {
	if name == kifmm.Yukawa {
		return kernel.Yukawa{Lambda: lambda}
	}
	return kernel.ByName(string(name))
}

func geomPoints(pts []kifmm.Point) []geom.Point {
	out := make([]geom.Point, len(pts))
	for i, p := range pts {
		out[i] = geom.Point(p)
	}
	return out
}

// directAt is the accuracy oracle: the exact potentials at the targets
// pts[idx] due to all sources, by direct summation at those targets only.
func directAt(name kifmm.KernelName, lambda float64, pts []kifmm.Point, den []float64, idx []int) []float64 {
	src := geomPoints(pts)
	trg := make([]geom.Point, len(idx))
	for k, i := range idx {
		trg[k] = src[i]
	}
	return kernel.Direct(kernelFor(name, lambda), trg, src, den)
}

// tracedOps is how many traced, untraced and task-graph ops the traced run
// takes the median of.
const tracedOps = 3

// runTracedLibrary is the traced run of a library workload. Times are
// calibrated like the timed run's; counts are exact.
func runTracedLibrary(w workload, seed int64, outDir string) (*passResult, error) {
	res := &passResult{Layer: map[string]float64{}}
	L := res.Layer
	rec := newRecorder()
	prof := diag.NewProfile()
	ms := func(d time.Duration, scale float64) float64 {
		return float64(d) / float64(time.Millisecond) * scale
	}
	// timeCall spans one call into a layer and returns its duration.
	timeCall := func(name, layer string, op, parent int, fn func()) time.Duration {
		id := rec.begin(name, layer, op, parent, 0)
		fn()
		return rec.end(id)
	}

	// Set-up, one exported call at a time.
	cal0 := reading()
	setup := rec.begin("setup", "loop", 0, -1, 0)
	rng := rand.New(rand.NewSource(seed))
	var pts []kifmm.Point
	var dens [numDensities][]float64
	kern := kernelFor(w.kernel, 0)
	timeCall("inputs", "loop", 0, setup, func() {
		pts = genPoints(rng, w.n, w.ellipse)
		for d := range dens {
			dens[d] = genDensities(rng, w.n*kern.SrcDim())
		}
	})
	var ops *ikifmm.Operators
	dOps := timeCall("NewOperators", "operators", 0, setup, func() { ops = ikifmm.NewOperators(kern, w.order, 1e-9) })
	var tree *octree.Tree
	dBuild := timeCall("Build", "octree", 0, setup, func() { tree = octree.Build(geomPoints(pts), w.q, 24) })
	dLists := timeCall("BuildLists", "octree", 0, setup, func() { tree.BuildLists(nil) })
	tf0 := ikifmm.SharedTranslations.Stats()
	dWarm := timeCall("Prewarm", "tfcache", 0, setup, func() { ops.FFT().Prewarm([]int{0}, w.workers) })
	tf1 := ikifmm.SharedTranslations.Stats()
	var layout *ikifmm.Layout
	dLayout := timeCall("NewLayout", "layout", 0, setup, func() { layout = ikifmm.NewLayout(tree, ops, false) })
	var eng *ikifmm.Engine
	dEngine := timeCall("NewEngineLayout", "engine", 0, setup, func() {
		eng = ikifmm.NewEngineLayout(ops, tree, layout)
		eng.UseFFTM2L = true
		eng.Prof = prof
	})

	phases := []struct {
		name string
		fn   func()
	}{
		{"s2u", eng.S2U}, {"u2u", eng.U2U}, {"vli", eng.VLI}, {"xli", eng.XLI},
		{"d2d", eng.Downward}, {"wli", eng.WLI}, {"d2t", eng.D2T}, {"uli", eng.ULI},
	}
	// tracedApply is Plan.Apply's barrier path with a span per phase; what
	// is left of the apply span — state reset, density scatter, potential
	// gather — is its self time.
	tracedApply := func(op, parent, d int) (pot []float64, apply int, phaseIDs []int) {
		eng.Workers = 1
		apply = rec.begin("apply", "engine", op, parent, 0)
		eng.Reset()
		eng.SetDensitiesMasked(dens[d], 0)
		for _, p := range phases {
			id := rec.begin(p.name, "engine", op, apply, 0)
			p.fn()
			rec.end(id)
			phaseIDs = append(phaseIDs, id)
		}
		pot = eng.PointPotentials()
		rec.end(apply)
		return pot, apply, phaseIDs
	}
	first, firstApply, _ := tracedApply(0, setup, 0)
	dSetup := rec.end(setup)
	cal1 := reading()
	scale := calRefMS / ((cal0 + cal1) / 2)
	L["operators.new_ms"] = ms(dOps, scale)
	L["octree.build_ms"] = ms(dBuild, scale)
	L["octree.lists_ms"] = ms(dLists, scale)
	L["tfcache.prewarm_ms"] = ms(dWarm, scale)
	L["tfcache.hits"] = float64(tf1.Hits - tf0.Hits)
	L["tfcache.misses"] = float64(tf1.Misses - tf0.Misses)
	L["layout.new_ms"] = ms(dLayout, scale)
	L["engine.new_ms"] = ms(dEngine, scale)
	L["engine.first_apply_ms"] = ms(rec.spans[firstApply].End-rec.spans[firstApply].Start, scale)
	res.SetupRawS = dSetup.Seconds()
	res.SetupS = ms(dSetup, scale) / 1000
	treeShape(L, tree, ops)

	// The check, off the clock.
	idx := genSampleIdx(rng, w.n)
	res.Attempted++
	if e := relL2(sampleAt(first, idx, kern.TrgDim()), directAt(w.kernel, 0, pts, dens[0], idx)); e <= w.errTol {
		res.RelErr = e
	} else {
		res.Failed++
		fmt.Fprintf(os.Stderr, "bench: %s: traced op failed: rel_l2=%.3g (threshold %.3g)\n", w.name, e, w.errTol)
	}

	// Traced ops alternate with untraced Engine.Evaluate on the same engine;
	// the difference between the two is the tracing overhead.
	flops0 := prof.Snapshot()
	phaseMS := make([][]float64, len(phases))
	var ioMS, tracedMS, plainMS []float64
	for op := 1; op <= tracedOps; op++ {
		c0 := reading()
		_, apply, ids := tracedApply(op, -1, op%numDensities)
		c1 := reading()
		s := calRefMS / ((c0 + c1) / 2)
		self := selfTimes(rec.spans)
		for p, id := range ids {
			phaseMS[p] = append(phaseMS[p], ms(rec.spans[id].End-rec.spans[id].Start, s))
		}
		ioMS = append(ioMS, ms(self[apply], s))
		tracedMS = append(tracedMS, ms(rec.spans[apply].End-rec.spans[apply].Start, s))

		t0 := time.Now()
		eng.Reset()
		eng.SetDensitiesMasked(dens[op%numDensities], 0)
		eng.Evaluate()
		eng.PointPotentials()
		plain := time.Since(t0)
		plainMS = append(plainMS, normalise(plain, c1, reading()))
	}
	flops1 := prof.Snapshot()
	sumPhases := 0.0
	for p, ph := range phases {
		L["engine."+ph.name+"_ms"] = median(phaseMS[p])
		sumPhases += median(phaseMS[p])
	}
	L["engine.io_ms"] = median(ioMS)
	// Interference only ever adds time, so the fastest of three is the
	// steadiest estimate of each side.
	L["loop.trace_overhead_pct"] = (quantile(tracedMS, 0)/quantile(plainMS, 0) - 1) * 100
	// Each traced op is followed by an untraced Evaluate with the same
	// counts, so one op's flops are the delta over 2·tracedOps.
	mflop := func(phase string) float64 {
		return float64(flops1[phase].Flops-flops0[phase].Flops) / (2 * tracedOps) / 1e6
	}
	L["engine.upward_mflop"] = mflop(diag.PhaseUpward)
	L["engine.vli_mflop"] = mflop(diag.PhaseVList)
	L["engine.xli_mflop"] = mflop(diag.PhaseXList)
	L["engine.wli_mflop"] = mflop(diag.PhaseWList)
	L["engine.downward_mflop"] = mflop(diag.PhaseDownward)
	L["engine.uli_mflop"] = mflop(diag.PhaseUList)
	L["engine.vli_gflops"] = L["engine.vli_mflop"] / L["engine.vli_ms"]
	L["engine.uli_gflops"] = L["engine.uli_mflop"] / L["engine.uli_ms"]

	// The task graph at the workload's worker count, where it has one.
	if w.workers > 1 {
		eng.Workers = w.workers
		var dagMS []float64
		for op := 0; op < tracedOps; op++ {
			eng.Reset()
			eng.SetDensitiesMasked(dens[op%numDensities], 0)
			c0 := reading()
			id := rec.begin("EvaluateDAG", "sched", tracedOps+1+op, -1, 0)
			stats, err := eng.EvaluateDAG(nil)
			rec.end(id)
			if err != nil {
				return nil, err
			}
			dagMS = append(dagMS, normalise(stats.Wall, c0, reading()))
			L["sched.tasks"] = float64(stats.Tasks)
			L["sched.steals"] = float64(stats.Steals)
			L["sched.stolen"] = float64(stats.Stolen)
			L["sched.idle_ms"] = float64(stats.Idle) / float64(time.Millisecond)
		}
		L["sched.dag_apply_ms"] = median(dagMS)
		L["sched.parallel_eff"] = sumPhases / (float64(w.workers) * median(dagMS))
	}

	// The micro-benchmarks, in the same calibrated units as the phases.
	c0 := reading()
	fftMicro(L, ops)
	kernelMicro(L, kern)
	micro := calRefMS / ((c0 + reading()) / 2)
	for _, k := range []string{"fft.forward_us", "fft.hadamard_us", "fft.inverse_us", "kernel.evalpanel_ns_per_pair", "kernel.evalpanel32_ns_per_pair"} {
		L[k] *= micro
	}
	return res, rec.write(filepath.Join(outDir, w.name+".trace.json"))
}

// treeShape records the counters that must repeat exactly and explain the
// phase split, and the FFT call counts one barrier-path Apply makes on this
// tree: a forward transform per source of every V-list target block, a
// Hadamard product per V-list entry, an inverse per V-list target.
func treeShape(L map[string]float64, tree *octree.Tree, ops *ikifmm.Operators) {
	var u, v, wl, x, depth int
	byLevel := map[int][]int32{}
	for i := range tree.Nodes {
		n := &tree.Nodes[i]
		u, v, wl, x = u+len(n.U), v+len(n.V), wl+len(n.W), x+len(n.X)
		depth = max(depth, n.Key.Level())
		if len(n.V) > 0 {
			byLevel[n.Key.Level()] = append(byLevel[n.Key.Level()], int32(i))
		}
	}
	L["octree.nodes"] = float64(len(tree.Nodes))
	L["octree.leaves"] = float64(len(tree.Leaves))
	L["octree.depth"] = float64(depth)
	L["octree.u_entries"] = float64(u)
	L["octree.v_entries"] = float64(v)
	L["octree.w_entries"] = float64(wl)
	L["octree.x_entries"] = float64(x)

	// The block size documented on kifmm.Options.VListBlock: an 8 MiB budget
	// of live target accumulators, at least 4 targets per worker, at most
	// 1024. The traced phases run single-worker.
	block := min(max((8<<20)/(ops.FFT().AccLen()*8), 4), 1024)
	forward, inverse := 0, 0
	for _, targets := range byLevel {
		inverse += len(targets)
		for lo := 0; lo < len(targets); lo += block {
			srcs := map[int32]bool{}
			for _, t := range targets[lo:min(lo+block, len(targets))] {
				for _, a := range tree.Nodes[t].V {
					srcs[a] = true
				}
			}
			forward += len(srcs)
		}
	}
	L["fft.forward_calls"] = float64(forward)
	L["fft.hadamard_calls"] = float64(v)
	L["fft.inverse_calls"] = float64(inverse)
}

// fftMicro times one call each of the three steps of a V-list translation
// at the workload's order and kernel dimensions. The Hadamard loop walks
// many spectra so that, as in an Apply, they come from beyond the L2 cache.
func fftMicro(L map[string]float64, ops *ikifmm.Operators) {
	f := ops.FFT()
	sd, td := ops.Kern.SrcDim(), ops.Kern.TrgDim()
	grid := make([]float64, f.GridLen())
	u := make([]float64, ops.UpwardLen())
	for i := range u {
		u[i] = float64(i%7) - 3
	}
	const nSpec, nAcc, nDir = 256, 8, 64
	specs := make([][]float64, nSpec)
	for i := range specs {
		specs[i] = make([]float64, f.SpecLen())
	}
	perCall := func(calls int, fn func(k int)) float64 {
		fn(0)
		t0 := time.Now()
		for k := 0; k < calls; k++ {
			fn(k)
		}
		return float64(time.Since(t0)) / float64(time.Microsecond) / float64(calls)
	}
	L["fft.forward_us"] = perCall(2*nSpec, func(k int) { f.SourceSpectrumInto(u, specs[k%nSpec], grid) })
	var tfs [][]float64
	for dx := -3; dx <= 3 && len(tfs) < nDir; dx++ {
		for dy := -3; dy <= 3 && len(tfs) < nDir; dy++ {
			tfs = append(tfs, f.Translation(dx, dy, 3))
		}
	}
	accs := make([][]float64, nAcc)
	for i := range accs {
		accs[i] = make([]float64, f.AccLen())
	}
	L["fft.hadamard_us"] = perCall(8*nSpec, func(k int) {
		ikifmm.Hadamard(accs[k%nAcc], tfs[k%len(tfs)], specs[(k*7)%nSpec], sd, td, f.HalfLen())
	})
	chk := make([]float64, ops.CheckLen())
	L["fft.inverse_us"] = perCall(2*nSpec, func(k int) { f.ExtractCheck(accs[k%nAcc], 1, chk, grid) })
}

// kernelMicro times the near-field panel kernels on a 200×200 panel.
func kernelMicro(L map[string]float64, kern kernel.Kernel) {
	const n, reps = 200, 50
	rng := rand.New(rand.NewSource(1))
	coord := func() ([]float64, []float32) {
		a, b := make([]float64, n), make([]float32, n)
		for i := range a {
			a[i] = rng.Float64()
			b[i] = float32(a[i])
		}
		return a, b
	}
	tx, tx32 := coord()
	ty, ty32 := coord()
	tz, tz32 := coord()
	sx, sx32 := coord()
	sy, sy32 := coord()
	sz, sz32 := coord()
	den := make([]float64, n*kern.SrcDim())
	den32 := make([]float32, len(den))
	for i := range den {
		den[i] = rng.Float64() - 0.5
		den32[i] = float32(den[i])
	}
	out := make([]float64, n*kern.TrgDim())
	nsPerPair := func(fn func()) float64 {
		fn()
		t0 := time.Now()
		for r := 0; r < reps; r++ {
			fn()
		}
		return float64(time.Since(t0)) / float64(reps*n*n)
	}
	b := kernel.AsBatch(kern)
	L["kernel.evalpanel_ns_per_pair"] = nsPerPair(func() { b.EvalPanel(tx, ty, tz, sx, sy, sz, den, out, -1) })
	if b32, ok := kernel.AsBatch32(kern); ok {
		L["kernel.evalpanel32_ns_per_pair"] = nsPerPair(func() { b32.EvalPanel32(tx32, ty32, tz32, sx32, sy32, sz32, den32, out, -1) })
	}
}
