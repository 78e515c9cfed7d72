package diag

import (
	"strings"
	"sync"
	"testing"
	"time"
)

func TestProfileAccumulates(t *testing.T) {
	p := NewProfile()
	p.AddTime("A", time.Second)
	p.AddTime("A", 2*time.Second)
	p.AddFlops("A", 100)
	p.AddFlops("B", 50)
	if p.Time("A") != 3*time.Second {
		t.Fatalf("time = %v", p.Time("A"))
	}
	if p.Flops("A") != 100 || p.Flops("B") != 50 {
		t.Fatalf("flops wrong")
	}
	if p.Time("missing") != 0 || p.Flops("missing") != 0 {
		t.Fatalf("missing phase should be zero")
	}
}

// TestMerge: one batch adds every entry given, a repeated name's entries
// sum, and zeros still create the phase, as the engine's Record relies on.
func TestMerge(t *testing.T) {
	p := NewProfile()
	p.AddFlops("Upward", 1)
	for range 2 {
		p.Merge([]string{"Upward", "Upward", "Sched idle"},
			[]time.Duration{time.Second, 2 * time.Second, 0}, []int64{10, 20, 0},
			[]string{"graphs", "tasks"}, []int64{1, 7})
	}
	if p.Time("Upward") != 6*time.Second || p.Flops("Upward") != 61 {
		t.Fatalf("Upward: %v, %d flops", p.Time("Upward"), p.Flops("Upward"))
	}
	if _, ok := p.Snapshot()["Sched idle"]; !ok {
		t.Fatal("a merged zero phase is absent")
	}
	if p.Counter("graphs") != 2 || p.Counter("tasks") != 14 {
		t.Fatalf("counters: %d graphs, %d tasks", p.Counter("graphs"), p.Counter("tasks"))
	}
}

func TestStartStop(t *testing.T) {
	p := NewProfile()
	stop := p.Start("phase")
	time.Sleep(5 * time.Millisecond)
	stop()
	if p.Time("phase") < 4*time.Millisecond {
		t.Fatalf("timer too small: %v", p.Time("phase"))
	}
}

func TestProfileConcurrentSafe(t *testing.T) {
	p := NewProfile()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				p.AddFlops("x", 1)
				p.AddTime("x", time.Nanosecond)
			}
		}()
	}
	wg.Wait()
	if p.Flops("x") != 8000 {
		t.Fatalf("lost updates: %d", p.Flops("x"))
	}
}

func TestReduceMaxAvg(t *testing.T) {
	p1, p2 := NewProfile(), NewProfile()
	p1.AddTime("U-list", 2*time.Second)
	p2.AddTime("U-list", 4*time.Second)
	p1.AddFlops("U-list", 10)
	p2.AddFlops("U-list", 30)
	rows := Reduce([]*Profile{p1, p2}, []string{"U-list", "V-list"})
	if len(rows) != 1 {
		t.Fatalf("expected only seen phases, got %d rows", len(rows))
	}
	r := rows[0]
	if r.MaxTime != 4*time.Second || r.AvgTime != 3*time.Second {
		t.Fatalf("time reduction wrong: %+v", r)
	}
	if r.MaxFlops != 30 || r.AvgFlops != 20 {
		t.Fatalf("flop reduction wrong: %+v", r)
	}
}

func TestFormatTableIncludesRows(t *testing.T) {
	p := NewProfile()
	p.AddTime(PhaseTotalEval, time.Second)
	p.AddFlops(PhaseTotalEval, 12345)
	s := FormatTable(Reduce([]*Profile{p}, EvalPhases))
	if !strings.Contains(s, "Total eval") || !strings.Contains(s, "Max. Time") {
		t.Fatalf("table missing content:\n%s", s)
	}
}

func TestSnapshotExportsAllPhases(t *testing.T) {
	p := NewProfile()
	p.AddTime("U-list", 1500*time.Millisecond)
	p.AddFlops("U-list", 42)
	p.AddFlops("flops-only", 7)
	snap := p.Snapshot()
	if len(snap) != 2 {
		t.Fatalf("snapshot = %v", snap)
	}
	if s := snap["U-list"]; s.Seconds != 1.5 || s.Flops != 42 {
		t.Fatalf("U-list stat = %+v", s)
	}
	if s := snap["flops-only"]; s.Seconds != 0 || s.Flops != 7 {
		t.Fatalf("flops-only stat = %+v", s)
	}
	// The snapshot is a copy: later accumulation must not leak in.
	p.AddTime("U-list", time.Second)
	if snap["U-list"].Seconds != 1.5 {
		t.Fatalf("snapshot aliased live state")
	}
}

func TestWriteMetricsFormat(t *testing.T) {
	p := NewProfile()
	p.AddTime("Apply", 250*time.Millisecond)
	p.AddTime("U-list", time.Second)
	p.AddFlops("U-list", 99)
	var b strings.Builder
	p.WriteMetrics(&b, "kifmm")
	out := b.String()
	for _, want := range []string{
		"# TYPE kifmm_phase_seconds_total counter",
		`kifmm_phase_seconds_total{phase="Apply"} 2.500000e-01`,
		`kifmm_phase_seconds_total{phase="U-list"} 1.000000e+00`,
		`kifmm_phase_flops_total{phase="U-list"} 99`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("metrics missing %q:\n%s", want, out)
		}
	}
	// Deterministic ordering: Apply sorts before U-list.
	if strings.Index(out, `phase="Apply"`) > strings.Index(out, `phase="U-list"`) {
		t.Fatalf("phases not sorted:\n%s", out)
	}
}

func TestFlopsPerRank(t *testing.T) {
	ps := []*Profile{NewProfile(), NewProfile(), NewProfile()}
	for i, p := range ps {
		p.AddFlops(PhaseComp, int64(i*10))
	}
	got := FlopsPerRank(ps, PhaseComp)
	if got[0] != 0 || got[1] != 10 || got[2] != 20 {
		t.Fatalf("FlopsPerRank = %v", got)
	}
}
