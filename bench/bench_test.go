package main

import (
	"encoding/json"
	"maps"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"testing"
	"time"

	"kifmm"
)

func specNames(ms []metricSpec) []string {
	out := make([]string, len(ms))
	for i, m := range ms {
		out[i] = m.Name
	}
	sort.Strings(out)
	return out
}

// Every workload, timed and traced, at toy size with passes run in-process:
// the emitted names are exactly those BENCHMARK.json declares, no op fails,
// and the trace files parse with non-negative self times.
func TestSmoke(t *testing.T) {
	spec, _, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	var declared []string
	for _, w := range spec.Workloads {
		declared = append(declared, w.Name)
	}
	var have []string
	for _, w := range workloads {
		have = append(have, w.name)
	}
	if !slices.Equal(declared, have) {
		t.Fatalf("workloads %v, BENCHMARK.json declares %v", have, declared)
	}
	out := t.TempDir()
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			r, err := runWorkload(spec, w.toy(), trace, 1, 0.3, out, runPass)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.name, trace, err)
			}
			want := specNames(spec.EndToEnd)
			if trace {
				want = specNames(spec.PerLayer)
			}
			if got := slices.Sorted(maps.Keys(r.Metrics)); !slices.Equal(got, want) {
				t.Errorf("%s trace=%v: metrics %v, want %v", w.name, trace, got, want)
			}
			if r.Failed != 0 || r.Attempted == 0 {
				t.Errorf("%s trace=%v: %d of %d ops failed", w.name, trace, r.Failed, r.Attempted)
			}
			if !trace {
				for name, m := range r.Metrics {
					if !(m.Value > 0) {
						t.Errorf("%s: %s = %v, want > 0", w.name, name, m.Value)
					}
				}
			}
		}
		raw, err := os.ReadFile(filepath.Join(out, w.name+".trace.json"))
		if err != nil {
			t.Fatal(err)
		}
		var doc struct {
			TraceEvents []struct {
				Name string
				Dur  float64
				Args struct {
					SelfUS float64 `json:"self_us"`
				}
			}
		}
		if err := json.Unmarshal(raw, &doc); err != nil {
			t.Fatalf("%s trace: %v", w.name, err)
		}
		if len(doc.TraceEvents) == 0 {
			t.Errorf("%s trace is empty", w.name)
		}
		for _, ev := range doc.TraceEvents {
			if ev.Args.SelfUS < 0 || ev.Dur < 0 {
				t.Errorf("%s trace: span %s has dur %v self %v", w.name, ev.Name, ev.Dur, ev.Args.SelfUS)
			}
		}
	}
}

func TestSelfTimeSubtractsMergedChildren(t *testing.T) {
	ms := time.Millisecond
	spans := []span{
		{Name: "parent", Parent: -1, Start: 0, End: 100 * ms},
		{Name: "a", Parent: 0, Start: 10 * ms, End: 40 * ms},
		{Name: "b", Parent: 0, Start: 30 * ms, End: 60 * ms}, // overlaps a
		{Name: "late", Parent: 0, Start: 90 * ms, End: 120 * ms},
	}
	self := selfTimes(spans)
	if want := 40 * ms; self[0] != want {
		t.Errorf("parent self = %v, want %v", self[0], want)
	}
	if self[1] != 30*ms || self[3] != 30*ms {
		t.Errorf("leaf self times = %v, %v", self[1], self[3])
	}
}

// The accuracy check must reject a corrupted potential vector and accept
// the exact one.
func TestAccuracyCheckRejectsCorruption(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	pts := genPoints(rng, 400, false)
	den := genDensities(rng, len(pts))
	all := make([]int, len(pts))
	for i := range all {
		all[i] = i
	}
	exact := directAt(kifmm.Laplace, 0, pts, den, all)
	idx := genSampleIdx(rng, len(pts))
	ref := directAt(kifmm.Laplace, 0, pts, den, idx)
	w, _ := workloadByName("far_uniform")
	if e := relL2(sampleAt(exact, idx, 1), ref); e > w.errTol {
		t.Fatalf("exact potentials: rel L2 %v over the threshold %v", e, w.errTol)
	}
	exact[idx[0]] *= 1.01
	if e := relL2(sampleAt(exact, idx, 1), ref); e <= w.errTol {
		t.Errorf("corrupted potentials pass the check: rel L2 %v within %v", e, w.errTol)
	}
	if e := relL2(sampleAt(nil, idx, 1), ref); e <= w.errTol {
		t.Errorf("missing potentials pass the check: rel L2 %v", e)
	}
}

func TestCompareVerdicts(t *testing.T) {
	spec, _, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	write := func(name string, p50, spread float64) string {
		f := resultFile{Results: []workloadResult{{
			Workload:      "far_uniform",
			Metrics:       map[string]metricValue{"op_p50_ms": {p50, "ms"}},
			PassSpreadPct: map[string]float64{"op_p50_ms": spread},
		}}}
		path := filepath.Join(dir, name)
		if err := writeJSONFile(path, f); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base := write("a.json", 1000, 1)
	for _, c := range []struct {
		name      string
		p50       float64
		spread    float64
		wantWorse bool
	}{
		{"same.json", 1030, 1, false},
		{"worse.json", 1300, 1, true},
		{"better.json", 700, 1, false},
		{"noisy.json", 1300, 50, false}, // unresolved, not worse
	} {
		worse, err := compare(os.Stderr, spec, base, write(c.name, c.p50, c.spread))
		if err != nil {
			t.Fatal(err)
		}
		if worse != c.wantWorse {
			t.Errorf("%s: worse = %v, want %v", c.name, worse, c.wantWorse)
		}
	}
}
