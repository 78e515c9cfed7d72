// Command bench is the repo's benchmark: calibrated end-to-end metrics on
// four workloads, and a traced run that gives the per-layer table. See
// README.md in this directory; BENCHMARK.json at the repo root fixes the
// names, units and bounds.
//
//	go run -C bench .                       every workload, timed then traced
//	go run -C bench . -workload far_uniform one workload, timed
//	go run -C bench . -workload far_uniform -trace 1
//	go run -C bench . -compare A.json B.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
)

// Three passes per timed run, each a fresh subprocess that sets up once and
// then times ops for a third of the run; two per traced run, which only
// needs them for the loop.* metrics.
const (
	timedPasses  = 3
	tracedPasses = 2
	// maxProcs is the thread budget of every workload: the reference box
	// has two cores, and no workload uses more.
	maxProcs = 2
)

// passFunc runs one pass of a workload. mode is "timed" (the public API
// and the wire only) or "traced" (spans on).
type passFunc func(w workload, mode string, seed int64, seconds float64, outDir string) (*passResult, error)

// runPass is the body of a pass; the runner calls it in a subprocess.
func runPass(w workload, mode string, seed int64, seconds float64, outDir string) (*passResult, error) {
	switch {
	case w.served() && mode == "traced":
		rec := newRecorder()
		res, err := runServePass(w, seed, seconds, rec)
		if err != nil {
			return nil, err
		}
		return res, rec.write(filepath.Join(outDir, w.name+".trace.json"))
	case w.served():
		return runServePass(w, seed, seconds, nil)
	case mode == "traced":
		return runTracedLibrary(w, seed, outDir)
	default:
		return runLibraryPass(w, seed, seconds)
	}
}

// spawnPass runs runPass in a fresh copy of this binary, so that every pass
// pays its own set-up against cold process-wide caches and reports its own
// peak memory.
func spawnPass(w workload, mode string, seed int64, seconds float64, outDir string) (*passResult, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe, "-pass", mode, "-workload", w.name, "-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-out", outDir)
	cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(maxProcs))
	cmd.Stderr = os.Stderr
	out, err := cmd.Output() // waits for the child to end
	if err != nil {
		return nil, fmt.Errorf("%s pass of %s: %w", mode, w.name, err)
	}
	res := &passResult{}
	if err := json.Unmarshal(out, res); err != nil {
		return nil, fmt.Errorf("%s pass of %s: bad result: %w", mode, w.name, err)
	}
	return res, nil
}

// runWorkload runs the passes of one workload and pools them.
func runWorkload(spec *benchSpec, w workload, trace bool, seed int64, seconds float64, outDir string, pass passFunc) (workloadResult, error) {
	n := timedPasses
	if trace {
		n = tracedPasses
	}
	var passes []*passResult
	for p := 0; p < n; p++ {
		mode := "timed"
		if trace && w.served() && p == n-1 {
			mode = "traced"
		}
		res, err := pass(w, mode, seed, seconds/timedPasses, outDir)
		if err != nil {
			return workloadResult{}, err
		}
		fmt.Fprintf(os.Stderr, "bench: %s pass %d (%s): setup %.3f s (raw %.3f), op p50 %.1f ms (raw %.1f) over %d ops, cal %.2f..%.2f ms\n",
			w.name, p, mode, res.SetupS, res.SetupRawS, median(res.OpsMS), median(res.OpsRawMS), len(res.OpsMS), quantile(res.Cal, 0), quantile(res.Cal, 1))
		passes = append(passes, res)
	}
	var extra *passResult
	if trace && !w.served() {
		var err error
		if extra, err = pass(w, "traced", seed, seconds/timedPasses, outDir); err != nil {
			return workloadResult{}, err
		}
	}
	return pool(spec, w, trace, passes, extra), nil
}

func main() {
	os.Exit(run())
}

func run() int {
	var (
		name    = flag.String("workload", "", "workload to run (default: all, timed then traced)")
		seed    = flag.Int64("seed", 1, "seed of the generated inputs")
		seconds = flag.Float64("seconds", 0, "seconds of timed ops per run (default: run_seconds of BENCHMARK.json)")
		trace   = flag.Int("trace", 0, "1: the traced run, which prints the per-layer metrics")
		cmp     = flag.Bool("compare", false, "compare two sets of result files: -compare A.json[,A2.json...] B.json[,...]")
		out     = flag.String("out", "", "directory for result and trace files (default: bench/out)")
		passArg = flag.String("pass", "", "internal: run one pass (timed or traced) and print its result")
		calib   = flag.Bool("calibrate", false, "print the minimum of 200 calibration readings (how calRefMS was pinned)")
	)
	flag.Parse()
	runtime.GOMAXPROCS(min(maxProcs, runtime.GOMAXPROCS(0)))
	fail := func(err error) int {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	if *calib {
		fmt.Printf("cal_ref_ms %.3f\n", calibrationMin(200, maxProcs))
		return 0
	}
	spec, root, err := loadSpec()
	if err != nil {
		return fail(err)
	}
	if *cmp {
		if flag.NArg() != 2 {
			return fail(fmt.Errorf("-compare takes two result files (or comma-separated lists)"))
		}
		worse, err := compare(os.Stdout, spec, flag.Arg(0), flag.Arg(1))
		if err != nil {
			return fail(err)
		}
		if worse {
			return 1
		}
		return 0
	}
	if *seconds <= 0 {
		*seconds = float64(spec.RunSeconds)
	}
	if *out == "" {
		*out = filepath.Join(root, "bench", "out")
	}
	selected := workloads
	if *name != "" {
		w, ok := workloadByName(*name)
		if !ok {
			return fail(fmt.Errorf("unknown workload %q", *name))
		}
		selected = []workload{w}
	}

	if *passArg != "" {
		// The first reading pays for first-touching the calibration buffers.
		calibrate(maxProcs)
		res, err := runPass(selected[0], *passArg, *seed, *seconds, *out)
		if err != nil {
			return fail(err)
		}
		b, err := json.Marshal(res)
		if err != nil {
			return fail(err)
		}
		fmt.Println(string(b))
		return 0
	}

	file := resultFile{Stamp: newStamp(root, *seed, *seconds)}
	modes := []bool{*trace == 1}
	if *name == "" {
		modes = []bool{false, true}
	}
	failed := 0
	for _, w := range selected {
		for _, tr := range modes {
			r, err := runWorkload(spec, w, tr, *seed, *seconds, *out, spawnPass)
			if err != nil {
				return fail(err)
			}
			printResult(os.Stdout, r)
			file.Results = append(file.Results, r)
			failed += r.Failed
		}
	}
	resName := "result.json"
	if *name != "" {
		resName = fmt.Sprintf("%s.trace%d.json", *name, *trace)
	}
	if err := writeJSONFile(filepath.Join(*out, resName), file); err != nil {
		return fail(err)
	}
	if *name != "" {
		// The driver's contract: the last line of standard output is one
		// JSON object.
		r := file.Results[0]
		line, err := json.Marshal(map[string]any{
			"correct": r.Failed == 0, "attempted": r.Attempted, "failed": r.Failed, "metrics": r.Metrics,
		})
		if err != nil {
			return fail(err)
		}
		fmt.Println(string(line))
	}
	if failed > 0 {
		fmt.Fprintf(os.Stderr, "bench: %d ops failed their check\n", failed)
		if *name == "" {
			return 1
		}
	}
	return 0
}
