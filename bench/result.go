package main

import (
	"encoding/json"
	"fmt"
	"io"
	"maps"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strings"
)

// metricSpec is one metric as BENCHMARK.json declares it.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// benchSpec is BENCHMARK.json: the one place that fixes the workload and
// metric names, the units, the directions and the bounds.
type benchSpec struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

// loadSpec finds BENCHMARK.json in the working directory or its parent (the
// benchmark runs from the repo root or from bench/) and returns it with
// the root directory.
func loadSpec() (*benchSpec, string, error) {
	for _, root := range []string{".", ".."} {
		b, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
		if err != nil {
			continue
		}
		var s benchSpec
		if err := json.Unmarshal(b, &s); err != nil {
			return nil, "", fmt.Errorf("BENCHMARK.json: %w", err)
		}
		return &s, root, nil
	}
	return nil, "", fmt.Errorf("BENCHMARK.json not found in . or ..")
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// stamp says what produced a result file.
type stamp struct {
	Commit     string  `json:"commit"`
	GoVersion  string  `json:"go_version"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	NProc      int     `json:"nproc"`
	CPU        string  `json:"cpu"`
	Seed       int64   `json:"seed"`
	CalRefMS   float64 `json:"cal_ref_ms"`
	Seconds    float64 `json:"seconds"`
}

func newStamp(root string, seed int64, seconds float64) stamp {
	s := stamp{
		Commit: "unknown", GoVersion: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		NProc: runtime.NumCPU(), CPU: "unknown", Seed: seed, CalRefMS: calRefMS, Seconds: seconds,
	}
	// Best effort: the driver's checkout is not a git repository.
	if out, err := exec.Command("git", "-C", root, "rev-parse", "--short", "HEAD").Output(); err == nil {
		s.Commit = strings.TrimSpace(string(out))
	}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if rest, ok := strings.CutPrefix(line, "model name"); ok {
				s.CPU = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(rest), ":"))
				break
			}
		}
	}
	return s
}

// workloadResult is one workload's pooled result, timed or traced.
type workloadResult struct {
	Workload  string `json:"workload"`
	Trace     bool   `json:"trace"`
	Passes    int    `json:"passes"`
	Attempted int    `json:"attempted"`
	Failed    int    `json:"failed"`
	// Samples is the number of pooled timed ops behind op_p50_ms.
	Samples int                    `json:"samples"`
	Metrics map[string]metricValue `json:"metrics"`
	// PassSpreadPct is, per end-to-end metric, (max − min) / median of the
	// per-pass values, in percent: a noisy run says so.
	PassSpreadPct map[string]float64 `json:"pass_spread_pct,omitempty"`
	// RawOpP50MS is op_p50_ms before calibration, kept in the file so the
	// raw spread can be read next to the calibrated one.
	RawOpP50MS float64 `json:"raw_op_p50_ms"`
	// PassResults are the passes as they reported, raw timings and
	// calibration readings included.
	PassResults []*passResult `json:"pass_results"`
}

type resultFile struct {
	Stamp   stamp            `json:"stamp"`
	Results []workloadResult `json:"results"`
}

func median(v []float64) float64 { return quantile(v, 0.5) }

// quantile is the q-quantile of v by linear interpolation (0 for no data).
func quantile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := min(lo+1, len(s)-1)
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func spreadPct(v []float64) float64 {
	m := median(v)
	if len(v) < 2 || m == 0 {
		return 0
	}
	return (quantile(v, 1) - quantile(v, 0)) / m * 100
}

// pool turns the passes of one workload into its result: op timings pool
// the ops of all passes, setup_s is the median pass, peak_rss_mb the
// largest. extra carries the traced pass of a library workload.
func pool(spec *benchSpec, w workload, trace bool, passes []*passResult, extra *passResult) workloadResult {
	r := workloadResult{Workload: w.name, Trace: trace, Passes: len(passes), Metrics: map[string]metricValue{}, PassResults: passes}
	var ops, raw, cal, setups, rss, p50s, rates []float64
	var block float64
	layer := map[string]float64{}
	counts := map[string]int{}
	for _, p := range passes {
		ops = append(ops, p.OpsMS...)
		raw = append(raw, p.OpsRawMS...)
		cal = append(cal, p.Cal...)
		setups = append(setups, p.SetupS)
		rss = append(rss, p.PeakRSSMB)
		p50s = append(p50s, median(p.OpsMS))
		rates = append(rates, float64(len(p.OpsMS))/p.BlockMS*1000)
		block += p.BlockMS
		r.Attempted += p.Attempted
		r.Failed += p.Failed
		layer["accuracy.rel_l2_err"] = math.Max(layer["accuracy.rel_l2_err"], p.RelErr)
		for k, v := range p.Layer {
			layer[k] += v
			counts[k]++
		}
	}
	for k, n := range counts {
		layer[k] /= float64(n) // per-pass layer metrics are means or per-op rates
	}
	r.Samples = len(ops)
	r.RawOpP50MS = median(raw)
	e2e := map[string]float64{
		"setup_s":     median(setups),
		"op_p50_ms":   median(ops),
		"ops_per_s":   float64(len(ops)) / block * 1000,
		"peak_rss_mb": quantile(rss, 1),
	}
	r.PassSpreadPct = map[string]float64{
		"setup_s": spreadPct(setups), "op_p50_ms": spreadPct(p50s),
		"ops_per_s": spreadPct(rates), "peak_rss_mb": spreadPct(rss),
	}
	if !trace {
		for _, m := range spec.EndToEnd {
			r.Metrics[m.Name] = metricValue{e2e[m.Name], m.Unit}
		}
		return r
	}
	if extra != nil {
		r.Attempted += extra.Attempted
		r.Failed += extra.Failed
		layer["accuracy.rel_l2_err"] = math.Max(layer["accuracy.rel_l2_err"], extra.RelErr)
		for k, v := range extra.Layer {
			layer[k] = v
		}
	} else {
		// serve_cycle: the last pass is the traced one. Interference only
		// ever adds time, so each side's fastest cycle is compared.
		traced := passes[len(passes)-1]
		layer["loop.trace_overhead_pct"] = (quantile(traced.OpsMS, 0)/quantile(passes[0].OpsMS, 0) - 1) * 100
	}
	layer["loop.op_raw_p50_ms"] = r.RawOpP50MS
	layer["loop.op_p90_ms"] = quantile(ops, 0.9)
	layer["loop.op_max_ms"] = quantile(ops, 1)
	layer["loop.samples"] = float64(len(ops))
	layer["loop.cal_p50_ms"] = median(cal)
	layer["loop.cal_min_ms"] = quantile(cal, 0)
	layer["loop.cal_max_ms"] = quantile(cal, 1)
	layer["loop.pass_spread_pct"] = r.PassSpreadPct["op_p50_ms"]
	for _, m := range spec.PerLayer {
		r.Metrics[m.Name] = metricValue{layer[m.Name], m.Unit} // 0: the workload does not exercise the layer
	}
	return r
}

// printResult lists every metric by name with its unit.
func printResult(out io.Writer, r workloadResult) {
	names := slices.Sorted(maps.Keys(r.Metrics))
	fmt.Fprintf(out, "%s: ops attempted %d, succeeded %d, failed %d; %d pooled samples over %d passes\n",
		r.Workload, r.Attempted, r.Attempted-r.Failed, r.Failed, r.Samples, r.Passes)
	for _, k := range names {
		m := r.Metrics[k]
		line := fmt.Sprintf("  %-34s %14.6g %s", k, m.Value, m.Unit)
		if s, ok := r.PassSpreadPct[k]; ok && !r.Trace {
			line += fmt.Sprintf("   (pass spread %.1f %%)", s)
		}
		fmt.Fprintln(out, line)
	}
}

func writeJSONFile(path string, v any) error {
	b, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// compare applies BENCHMARK.json's bounds to two sets of result files
// (each a comma-separated list; a set's value is the median over its
// files) and prints one row per workload × end-to-end metric. It reports
// whether any row is worse.
func compare(out io.Writer, spec *benchSpec, a, b string) (worse bool, err error) {
	type key struct{ workload, metric string }
	type set struct {
		vals       map[key][]float64
		passSpread map[key]float64
	}
	load := func(list string) (set, error) {
		s := set{map[key][]float64{}, map[key]float64{}}
		for _, path := range strings.Split(list, ",") {
			raw, err := os.ReadFile(path)
			if err != nil {
				return s, err
			}
			var f resultFile
			if err := json.Unmarshal(raw, &f); err != nil {
				return s, fmt.Errorf("%s: %w", path, err)
			}
			for _, r := range f.Results {
				if r.Trace {
					continue
				}
				for name, m := range r.Metrics {
					k := key{r.Workload, name}
					s.vals[k] = append(s.vals[k], m.Value)
					s.passSpread[k] = math.Max(s.passSpread[k], r.PassSpreadPct[name])
				}
			}
		}
		return s, nil
	}
	// spread is a set's run-to-run spread as a share of its median: the
	// distance between the quartiles of its files when it has four or more
	// (the driver's statistic); otherwise an estimate from the passes, half
	// the widest range of three passes.
	spread := func(s set, k key) float64 {
		if v := s.vals[k]; len(v) >= 4 {
			return (quantile(v, 0.75) - quantile(v, 0.25)) / median(v)
		}
		return s.passSpread[k] / 100 / 2
	}
	sa, err := load(a)
	if err != nil {
		return false, err
	}
	sb, err := load(b)
	if err != nil {
		return false, err
	}
	fmt.Fprintf(out, "%-16s %-12s %12s %12s %8s %7s %7s  %s\n", "workload", "metric", "A", "B", "B/A", "bound", "spread", "verdict")
	for _, w := range spec.Workloads {
		for _, m := range spec.EndToEnd {
			k := key{w.Name, m.Name}
			if len(sa.vals[k]) == 0 || len(sb.vals[k]) == 0 {
				continue
			}
			ma, mb := median(sa.vals[k]), median(sb.vals[k])
			ratio := mb / ma
			// change > 0 means B is worse than A by that share of A.
			change := ratio - 1
			if m.Better == "higher" {
				change = -change
			}
			sp := math.Max(spread(sa, k), spread(sb, k))
			verdict := "same"
			switch {
			case sp > m.Bound:
				verdict = "unresolved"
			case change > m.Bound:
				verdict, worse = "worse", true
			case change < -m.Bound:
				verdict = "better"
			}
			fmt.Fprintf(out, "%-16s %-12s %12.6g %12.6g %8.4f %6.1f%% %6.1f%%  %s\n",
				w.Name, m.Name, ma, mb, ratio, m.Bound*100, sp*100, verdict)
		}
	}
	return worse, nil
}
