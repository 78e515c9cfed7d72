package main

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"kifmm"
)

// workload is one set of inputs the benchmark runs. The four below are the
// names every later issue cites; README.md says why each exists.
type workload struct {
	name    string
	kernel  kifmm.KernelName
	ellipse bool // points on the paper's 1:1:4 ellipsoid instead of uniform in the cube
	n       int  // points per cloud
	q       int  // points per box
	order   int
	workers int // compute threads of the op (clients, for serve_cycle)
	// errTol is the accuracy threshold of the op's check: ten times the
	// relative L2 error measured at seed 1 when the benchmark was written.
	errTol float64
}

var workloads = []workload{
	// Full depth-4 octree, empty W/X lists, V-list ≈85 % of Apply; task graph.
	{name: "far_uniform", kernel: kifmm.Laplace, n: 100000, q: 50, order: 6, workers: 2, errTol: 2.1e-5},
	// Same cloud, depth-3 tree, U-list direct sums ≈75 %; single-threaded barrier path.
	{name: "near_uniform", kernel: kifmm.Laplace, n: 100000, q: 400, order: 6, workers: 1, errTol: 1.7e-5},
	// The paper's kernel and distribution; all four lists; setup is mostly NewOperators.
	{name: "stokes_adaptive", kernel: kifmm.Stokes, ellipse: true, n: 15000, q: 50, order: 5, workers: 2, errTol: 7e-3},
	// fmmserve over loopback: cache, pool, sessions, shards, Yukawa operators.
	{name: "serve_cycle", kernel: kifmm.Laplace, ellipse: true, n: 4000, q: 50, order: 6, workers: 2, errTol: 1.5e-5},
}

// served reports whether the workload goes through fmmserve instead of
// the library API.
func (w workload) served() bool { return w.name == "serve_cycle" }

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// toy shrinks a workload to smoke-test size; names and code paths stay.
func (w workload) toy() workload {
	w.n = 2000
	if w.served() {
		w.n = 600
	}
	w.order = 4
	w.errTol = 0.05
	return w
}

const (
	numDensities = 2   // distinct density vectors an op rotates through
	numSamples   = 256 // targets of the accuracy check
	maxOpsPass   = 64  // cap on timed ops per pass
)

// genPoints draws the workload's cloud: uniform in the unit cube, or the
// paper's "highly nonuniform" distribution — uniform in the spherical
// angles on a 1:1:4 ellipsoid, which clusters points at the poles.
func genPoints(rng *rand.Rand, n int, ellipse bool) []kifmm.Point {
	pts := make([]kifmm.Point, n)
	for i := range pts {
		if ellipse {
			pts[i] = ellipsoidPoint(rng)
		} else {
			pts[i] = kifmm.Point{X: rng.Float64(), Y: rng.Float64(), Z: rng.Float64()}
		}
	}
	return pts
}

func ellipsoidPoint(rng *rand.Rand) kifmm.Point {
	const a, c = 0.115, 0.46
	st, ct := math.Sincos(rng.Float64() * math.Pi)
	sp, cp := math.Sincos(rng.Float64() * 2 * math.Pi)
	return kifmm.Point{X: 0.5 + a*st*cp, Y: 0.5 + a*st*sp, Z: 0.5 + c*ct}
}

func genDensities(rng *rand.Rand, n int) []float64 {
	d := make([]float64, n)
	for i := range d {
		d[i] = rng.Float64() - 0.5
	}
	return d
}

// genSampleIdx picks the accuracy check's targets.
func genSampleIdx(rng *rand.Rand, n int) []int {
	idx := make([]int, min(numSamples, n))
	for i := range idx {
		idx[i] = rng.Intn(n)
	}
	return idx
}

// sampleAt picks the potentials (dim components per point) at the sample
// targets out of a full potential vector; nil if the vector is too short.
func sampleAt(pot []float64, idx []int, dim int) []float64 {
	out := make([]float64, 0, len(idx)*dim)
	for _, i := range idx {
		if (i+1)*dim > len(pot) {
			return nil
		}
		out = append(out, pot[i*dim:(i+1)*dim]...)
	}
	return out
}

// relL2 is the relative L2 error of the sampled potentials got against the
// reference ref; infinite when they cannot be compared.
func relL2(got, ref []float64) float64 {
	if len(got) == 0 || len(got) != len(ref) {
		return math.Inf(1)
	}
	var num, den float64
	for k := range got {
		d := got[k] - ref[k]
		num += d * d
		den += ref[k] * ref[k]
	}
	if den == 0 || math.IsNaN(num) {
		return math.Inf(1)
	}
	return math.Sqrt(num / den)
}

// passResult is what one pass — one fresh subprocess — reports to the
// runner. Times ending in MS/S are calibrated unless named Raw.
type passResult struct {
	SetupS    float64   `json:"setup_s"`
	SetupRawS float64   `json:"setup_raw_s"`
	OpsMS     []float64 `json:"ops_ms"`
	OpsRawMS  []float64 `json:"ops_raw_ms"`
	// BlockMS is the calibrated wall time of the timed ops: their sum for a
	// library workload, the sum of round walls for serve_cycle.
	BlockMS   float64   `json:"block_ms"`
	Cal       []float64 `json:"cal_ms"`
	Attempted int       `json:"attempted"`
	Failed    int       `json:"failed"`
	RelErr    float64   `json:"rel_err"`
	PeakRSSMB float64   `json:"peak_rss_mb"`
	// Layer holds per-layer metrics the pass measured (runtime counters for
	// every workload; service.* and the like for serve_cycle; everything
	// else for a traced pass).
	Layer map[string]float64 `json:"layer"`
}

// reading takes one calibration reading on a quiet heap: a collection
// first, so that the collector's background workers, still busy with the
// garbage of the op before, do not compete with the calibration kernel (they
// made readings after an allocation-heavy op up to three times too long).
// Every op therefore starts from a collected heap. The reading loads every
// core the benchmark may use, whatever the op's worker count: a
// one-goroutine reading samples one core, not necessarily the one a
// single-threaded op ran on, and tracked such ops worse.
func reading() float64 {
	runtime.GC()
	return calibrate(maxProcs)
}

// opLoop is the timed block shared by every workload: ops one after the
// other until the pass's share of the run has elapsed (two at least), each
// bracketed by calibration readings. op runs the i-th op (or, for
// serve_cycle, one round of concurrent ops) and returns the wall time of
// the block and one latency sample per op in it; its checks run off the
// clock.
func opLoop(res *passResult, seconds float64, op func(i int) (block time.Duration, samples []time.Duration)) {
	var m0, m1 runtime.MemStats
	start := time.Now()
	cal := reading()
	runtime.ReadMemStats(&m0)
	res.Cal = append(res.Cal, cal)
	n := 0
	for i := 0; i < maxOpsPass && (i < 2 || time.Since(start).Seconds() < seconds); i++ {
		block, raws := op(i)
		next := reading()
		res.Cal = append(res.Cal, next)
		for _, r := range raws {
			res.OpsRawMS = append(res.OpsRawMS, float64(r)/float64(time.Millisecond))
			res.OpsMS = append(res.OpsMS, normalise(r, cal, next))
		}
		res.BlockMS += normalise(block, cal, next)
		cal = next
		n += len(raws)
	}
	runtime.ReadMemStats(&m1)
	res.Layer["engine.alloc_mb_per_op"] = float64(m1.TotalAlloc-m0.TotalAlloc) / float64(n) / (1 << 20)
	res.Layer["engine.mallocs_per_op"] = float64(m1.Mallocs-m0.Mallocs) / float64(n)
	res.Layer["loop.gc_cycles"] = float64(m1.NumGC-m0.NumGC) - float64(len(res.Cal)-1) // less the forced ones
	res.Layer["loop.gc_pause_ms"] = float64(m1.PauseTotalNs-m0.PauseTotalNs) / 1e6
}

// runLibraryPass is one pass of a library workload, through the public
// kifmm API only: set-up (inputs, New, Plan, first Apply), then warm
// Plan.Apply ops.
func runLibraryPass(w workload, seed int64, seconds float64) (*passResult, error) {
	res := &passResult{Layer: map[string]float64{}}
	cal0 := reading()
	t0 := time.Now()
	rng := rand.New(rand.NewSource(seed))
	pts := genPoints(rng, w.n, w.ellipse)
	solver, err := kifmm.New(kifmm.Options{Kernel: w.kernel, PointsPerBox: w.q, Order: w.order, Workers: w.workers})
	if err != nil {
		return nil, err
	}
	dens := make([][]float64, numDensities)
	for d := range dens {
		dens[d] = genDensities(rng, w.n*solver.DensityDim())
	}
	plan, err := solver.Plan(pts)
	if err != nil {
		return nil, err
	}
	first, err := plan.Apply(dens[0])
	if err != nil {
		return nil, err
	}
	setup := time.Since(t0)
	cal1 := reading()
	res.SetupRawS = setup.Seconds()
	res.SetupS = normalise(setup, cal0, cal1) / 1000

	// Off the clock: the direct-sum reference at the sampled targets.
	idx := genSampleIdx(rng, w.n)
	refs := make([][]float64, numDensities)
	for d := range refs {
		refs[d] = directAt(w.kernel, 0, pts, dens[d], idx)
	}
	dim := solver.PotentialDim()
	check := func(pot []float64, d int, err error) {
		res.Attempted++
		e := math.Inf(1)
		if err == nil {
			e = relL2(sampleAt(pot, idx, dim), refs[d])
		}
		if !(e <= w.errTol) {
			res.Failed++
			fmt.Fprintf(os.Stderr, "bench: %s: op failed: err=%v rel_l2=%.3g (threshold %.3g)\n", w.name, err, e, w.errTol)
		}
		if !math.IsInf(e, 1) { // an infinite error would not encode as JSON
			res.RelErr = math.Max(res.RelErr, e)
		}
	}
	check(first, 0, nil)

	opLoop(res, seconds, func(i int) (time.Duration, []time.Duration) {
		d := (i + 1) % numDensities
		t := time.Now()
		pot, err := plan.Apply(dens[d])
		wall := time.Since(t)
		check(pot, d, err)
		return wall, []time.Duration{wall}
	})
	res.PeakRSSMB = peakRSSMB()
	return res, nil
}

// peakRSSMB reads the process's resident-set high-water mark.
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) > 0 {
				kb, _ := strconv.ParseFloat(f[0], 64)
				return kb / 1024
			}
		}
	}
	return 0
}
