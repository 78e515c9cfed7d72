// Package diag provides the phase timers and flop counters used to produce
// the paper's performance tables: per-phase wall-clock time and flop counts,
// reduced across ranks to "Max" and "Avg" columns exactly as in Table II.
// (The paper used PETSc's logging for this role.)
package diag

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"time"
)

// Standard phase names shared by the evaluation code and the reports. Using
// the same strings everywhere keeps cross-rank reduction trivial.
const (
	PhaseTotalEval = "Total eval"
	PhaseUpward    = "Upward"
	PhaseComm      = "Comm."
	PhaseUList     = "U-list"
	PhaseVList     = "V-list"
	PhaseWList     = "W-list"
	PhaseXList     = "X-list"
	PhaseDownward  = "Downward"
	PhaseComp      = "Comp"

	PhaseSetup = "Setup"
	PhaseSort  = "Sort"

	// PhaseSchedIdle accumulates the task-graph scheduler's summed
	// per-worker idle time (parked on an empty ready stack).
	PhaseSchedIdle = "Sched idle"

	// PhaseShardComm accumulates a sharded Apply's communication time
	// (ghost exchange + upward reduction), summed over its ranks.
	PhaseShardComm = "Shard comm"
)

// Counter names used by the task-graph runtime wiring (Profile.Merge); they
// surface on /metrics as <prefix>_<name>_total.
const (
	// CounterSchedGraphs counts executed task graphs (one per Apply, two per
	// rank of a distributed evaluation: before and after its exchange step).
	CounterSchedGraphs = "sched_graphs"
	// CounterSchedTasks counts executed scheduler tasks.
	CounterSchedTasks = "sched_tasks"
	// CounterSchedSteals counts handoffs: tasks run by a worker other than
	// the one that released them.
	CounterSchedSteals = "sched_steals"
)

// Profile accumulates named phase timings and flop counts for one rank.
// All methods are safe for concurrent use.
type Profile struct {
	mu       sync.Mutex
	times    map[string]time.Duration
	flops    map[string]int64
	counters map[string]int64
}

// NewProfile returns an empty profile.
func NewProfile() *Profile {
	return &Profile{
		times:    make(map[string]time.Duration),
		flops:    make(map[string]int64),
		counters: make(map[string]int64),
	}
}

// Start begins timing the named phase and returns a stop function that adds
// the elapsed time when called. Typical use: defer p.Start("U-list")().
func (p *Profile) Start(name string) func() {
	t0 := time.Now()
	return func() { p.AddTime(name, time.Since(t0)) }
}

// AddTime adds d to the named phase's accumulated time.
func (p *Profile) AddTime(name string, d time.Duration) {
	p.mu.Lock()
	p.times[name] += d
	p.mu.Unlock()
}

// AddFlops adds n to the named phase's flop count.
func (p *Profile) AddFlops(name string, n int64) {
	p.mu.Lock()
	p.flops[name] += n
	p.mu.Unlock()
}

// Merge adds, under one lock, times[i] and flops[i] to phase names[i] (names
// may repeat) and counts[i] to counter counters[i]: the path for code that
// accounts locally, like the engine's per-worker phase tables, instead of
// taking the lock per work item. Zeros are added too; leaving out the phases
// nothing touched is the caller's part.
func (p *Profile) Merge(names []string, times []time.Duration, flops []int64, counters []string, counts []int64) {
	p.mu.Lock()
	for i, name := range names {
		p.times[name] += times[i]
		p.flops[name] += flops[i]
	}
	for i, name := range counters {
		p.counters[name] += counts[i]
	}
	p.mu.Unlock()
}

// Counter returns the named counter's accumulated value.
func (p *Profile) Counter(name string) int64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.counters[name]
}

// Counters returns a copy of all counters.
func (p *Profile) Counters() map[string]int64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make(map[string]int64, len(p.counters))
	for k, v := range p.counters {
		out[k] = v
	}
	return out
}

// Time returns the accumulated time of the named phase.
func (p *Profile) Time(name string) time.Duration {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.times[name]
}

// Flops returns the accumulated flops of the named phase.
func (p *Profile) Flops(name string) int64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.flops[name]
}

// Row is one line of a cross-rank report: max/avg time and flops for one
// phase, in the format of the paper's Table II.
type Row struct {
	Event    string
	MaxTime  time.Duration
	AvgTime  time.Duration
	MaxFlops int64
	AvgFlops float64
}

// Reduce combines per-rank profiles into per-phase max/avg rows. Phases are
// reported in the order given; phases absent from every profile are skipped.
func Reduce(profiles []*Profile, phases []string) []Row {
	var rows []Row
	for _, ph := range phases {
		var maxT, sumT time.Duration
		var maxF, sumF int64
		seen := false
		for _, p := range profiles {
			t := p.Time(ph)
			f := p.Flops(ph)
			if t > 0 || f > 0 {
				seen = true
			}
			if t > maxT {
				maxT = t
			}
			if f > maxF {
				maxF = f
			}
			sumT += t
			sumF += f
		}
		if !seen {
			continue
		}
		n := len(profiles)
		rows = append(rows, Row{
			Event:    ph,
			MaxTime:  maxT,
			AvgTime:  sumT / time.Duration(n),
			MaxFlops: maxF,
			AvgFlops: float64(sumF) / float64(n),
		})
	}
	return rows
}

// EvalPhases is the row order of the paper's Table II.
var EvalPhases = []string{
	PhaseTotalEval, PhaseUpward, PhaseComm, PhaseUList, PhaseVList,
	PhaseWList, PhaseXList, PhaseDownward, PhaseComp,
}

// FormatTable renders rows in the paper's Table II layout.
func FormatTable(rows []Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-12s %12s %12s %14s %14s\n", "Event", "Max. Time", "Avg. Time", "Max. Flops", "Avg. Flops")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-12s %12.3e %12.3e %14.3e %14.3e\n",
			r.Event, r.MaxTime.Seconds(), r.AvgTime.Seconds(), float64(r.MaxFlops), r.AvgFlops)
	}
	return b.String()
}

// PhaseStat is one phase's accumulated totals in machine-readable form.
type PhaseStat struct {
	Seconds float64 `json:"seconds"`
	Flops   int64   `json:"flops,omitempty"`
}

// Snapshot returns a point-in-time copy of every phase's totals, keyed by
// phase name — the export consumed by the serving layer's /metrics endpoint
// (FormatTable renders the same data for humans).
func (p *Profile) Snapshot() map[string]PhaseStat {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make(map[string]PhaseStat, len(p.times)+len(p.flops))
	for k, v := range p.times {
		s := out[k]
		s.Seconds = v.Seconds()
		out[k] = s
	}
	for k, v := range p.flops {
		s := out[k]
		s.Flops = v
		out[k] = s
	}
	return out
}

// WriteMetrics renders the profile in the Prometheus text exposition format
// with the given metric name prefix, e.g.
//
//	kifmm_phase_seconds_total{phase="U-list"} 1.234e-02
//
// Phases are emitted in sorted order so the output is deterministic.
func (p *Profile) WriteMetrics(w io.Writer, prefix string) {
	snap := p.Snapshot()
	names := make([]string, 0, len(snap))
	for k := range snap {
		names = append(names, k)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "# TYPE %s_phase_seconds_total counter\n", prefix)
	for _, k := range names {
		fmt.Fprintf(w, "%s_phase_seconds_total{phase=%q} %.6e\n", prefix, k, snap[k].Seconds)
	}
	fmt.Fprintf(w, "# TYPE %s_phase_flops_total counter\n", prefix)
	for _, k := range names {
		if snap[k].Flops != 0 {
			fmt.Fprintf(w, "%s_phase_flops_total{phase=%q} %d\n", prefix, k, snap[k].Flops)
		}
	}
	counters := p.Counters()
	cnames := make([]string, 0, len(counters))
	for k := range counters {
		cnames = append(cnames, k)
	}
	sort.Strings(cnames)
	for _, k := range cnames {
		fmt.Fprintf(w, "# TYPE %s_%s_total counter\n", prefix, k)
		fmt.Fprintf(w, "%s_%s_total %d\n", prefix, k, counters[k])
	}
}

// FlopsPerRank extracts each rank's flops for one phase (Figure 5's
// flops-across-processes variance plot).
func FlopsPerRank(profiles []*Profile, phase string) []int64 {
	out := make([]int64, len(profiles))
	for i, p := range profiles {
		out[i] = p.Flops(phase)
	}
	return out
}
