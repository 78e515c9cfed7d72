package kifmm

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"slices"
	"testing"
)

// BENCH_TRAJECTORY.json is the checked-in trajectory of the benchmark
// (`bash bench/run.sh`): every performance change appends its alternating
// parent/change runs, and states its claims, which this test recomputes from
// the runs alone.

// trajectory is the file: the claims, and one record per (PR, workload,
// side, seed).
type trajectory struct {
	About   string       `json:"about"`
	Claims  []trajClaim  `json:"claims"`
	Records []trajRecord `json:"records"`
}

// trajClaim says that on a workload a PR's change side has a median of
// metric (lower is better) at most bound times the parent side's, pooled over
// every run of both, and that the change read lower on metric in at least
// minWins pairs; ratio is the median ratio the PR reported.
type trajClaim struct {
	PR       int     `json:"pr"`
	Workload string  `json:"workload"`
	Metric   string  `json:"metric"`
	Ratio    float64 `json:"ratio"`
	Bound    float64 `json:"bound"`
	MinWins  int     `json:"min_wins"`
}

// trajRecord is one side's runs of one seed: runs[m][k] is metric m in the
// record's k-th pair, median[m] its median, and wins the pairs in which this
// side's op_p50_ms beat the other side's. Commit is the commit measured;
// a change side may leave it empty, as its own commit does not exist yet
// when it is written.
type trajRecord struct {
	PR       int                  `json:"pr"`
	Commit   string               `json:"commit"`
	Workload string               `json:"workload"`
	Side     string               `json:"side"`
	Seed     int                  `json:"seed"`
	Pairs    int                  `json:"pairs"`
	Wins     int                  `json:"wins"`
	Median   map[string]float64   `json:"median"`
	Runs     map[string][]float64 `json:"runs"`
}

// trajMetrics are BENCHMARK.json's end-to-end metrics, every record's.
var trajMetrics = []string{"op_p50_ms", "ops_per_s", "peak_rss_mb", "setup_s"}

// median returns the median of v (the mean of the middle two for even n).
func median(v []float64) float64 {
	s := slices.Sorted(slices.Values(v))
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// TestBenchTrajectory parses BENCH_TRAJECTORY.json and checks it against
// itself: every record's medians and wins recompute from its runs and its
// counterpart's, every claim's ratio recomputes from its records and holds,
// and, where git is at hand, every parent commit exists.
func TestBenchTrajectory(t *testing.T) {
	raw, err := os.ReadFile("BENCH_TRAJECTORY.json")
	if err != nil {
		t.Fatal(err)
	}
	var tr trajectory
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&tr); err != nil {
		t.Fatalf("BENCH_TRAJECTORY.json: %v", err)
	}
	key := func(r trajRecord, side string) string {
		return fmt.Sprintf("%d/%s/%s/%d", r.PR, r.Workload, side, r.Seed)
	}
	bySide := map[string]trajRecord{}
	for _, r := range tr.Records {
		if r.Side != "parent" && r.Side != "change" {
			t.Fatalf("%s: side %q", key(r, r.Side), r.Side)
		}
		if _, dup := bySide[key(r, r.Side)]; dup {
			t.Fatalf("%s: two records", key(r, r.Side))
		}
		bySide[key(r, r.Side)] = r
	}
	other := map[string]string{"parent": "change", "change": "parent"}
	git := gitAvailable()
	for _, r := range tr.Records {
		label := key(r, r.Side)
		for _, m := range trajMetrics {
			runs := r.Runs[m]
			if len(runs) != r.Pairs || r.Pairs == 0 {
				t.Fatalf("%s: %d runs of %s for %d pairs", label, len(runs), m, r.Pairs)
			}
			if got := median(runs); math.Abs(got-r.Median[m]) > 1e-9*math.Abs(got) {
				t.Errorf("%s: median %s %v, recorded %v", label, m, got, r.Median[m])
			}
		}
		o, ok := bySide[key(r, other[r.Side])]
		if !ok || o.Pairs != r.Pairs {
			t.Fatalf("%s: no %s record of as many pairs", label, other[r.Side])
		}
		wins := 0
		for k, v := range r.Runs["op_p50_ms"] {
			if v < o.Runs["op_p50_ms"][k] {
				wins++
			}
		}
		if wins != r.Wins {
			t.Errorf("%s: wins %d pairs, recorded %d", label, wins, r.Wins)
		}
		if r.Side == "parent" && git {
			if err := exec.Command("git", "cat-file", "-e", r.Commit+"^{commit}").Run(); err != nil {
				t.Errorf("%s: parent commit %q is not in git: %v", label, r.Commit, err)
			}
		}
	}
	if len(tr.Claims) == 0 {
		t.Fatal("no claims")
	}
	for _, c := range tr.Claims {
		label := fmt.Sprintf("PR %d %s %s", c.PR, c.Workload, c.Metric)
		pooled := map[string][]float64{}
		wins := 0
		for _, r := range tr.Records {
			if r.PR == c.PR && r.Workload == c.Workload {
				pooled[r.Side] = append(pooled[r.Side], r.Runs[c.Metric]...)
				if r.Side == "change" {
					o := bySide[key(r, "parent")]
					for k, v := range r.Runs[c.Metric] {
						if v < o.Runs[c.Metric][k] {
							wins++
						}
					}
				}
			}
		}
		if len(pooled["change"]) == 0 {
			t.Fatalf("%s: no runs", label)
		}
		ratio := median(pooled["change"]) / median(pooled["parent"])
		t.Logf("%s: %.3f× over %d pairs, %d won", label, ratio, len(pooled["change"]), wins)
		if math.Abs(ratio-c.Ratio) > 0.0005 {
			t.Errorf("%s: ratio %.4f recomputes as %.4f", label, c.Ratio, ratio)
		}
		if ratio > c.Bound || wins < c.MinWins {
			t.Errorf("%s: %.3f× with %d wins; the claim is ≤ %.2f× with ≥ %d", label, ratio, wins, c.Bound, c.MinWins)
		}
	}
}

// gitAvailable reports whether git runs here and the working directory is in
// a repository.
func gitAvailable() bool {
	return exec.Command("git", "rev-parse", "--git-dir").Run() == nil
}
