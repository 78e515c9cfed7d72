package kifmm

import (
	"context"
	"fmt"
	"testing"

	"kifmm/internal/diag"
)

// flopPhases are the phases /metrics reports flops under, in the order of
// TestFlopsPinned's tables.
var flopPhases = [6]string{diag.PhaseUpward, diag.PhaseVList, diag.PhaseXList, diag.PhaseWList, diag.PhaseDownward, diag.PhaseUList}

// TestFlopsPinned holds one Apply's flops, phase by phase, to the values
// recorded on fixed inputs: scaled-down versions of the benchmark's four
// workload shapes (Laplace on a uniform cloud at q 50 and q 400, Stokes and
// Laplace on the ellipsoid) as a plan, a plan at distinct targets, a
// two-shard plan (two graphs per rank around the exchange) and a Yukawa
// session after one step, each at Workers 1 and 2. The counts are a function
// of the plan alone; this table is their oracle independent of the code
// that totals them. A two-shard plan's sum what each rank runs, shared
// octants' U2U and V on every rank that holds them, so they follow the cut.
func TestFlopsPinned(t *testing.T) {
	shapes := map[string]struct {
		opt     Options
		n       int
		ellipse bool
	}{
		"far_uniform":     {Options{PointsPerBox: 50, Order: 4}, 4000, false},
		"near_uniform":    {Options{PointsPerBox: 400, Order: 4}, 4000, false},
		"stokes_adaptive": {Options{Kernel: Stokes, PointsPerBox: 50, Order: 4}, 1500, true},
		"serve_cycle":     {Options{PointsPerBox: 50, Order: 4}, 1500, true},
	}
	for _, tc := range []struct {
		shape, mode string
		want        [6]int64
	}{
		{"far_uniform", "plan", [6]int64{9539712, 125460480, 13699616, 13699616, 9966208, 10453016}},
		{"far_uniform", "targets", [6]int64{10794112, 126983680, 0, 0, 10023440, 13110090}},
		{"far_uniform", "shards", [6]int64{11647104, 125593600, 13699616, 13699616, 9997568, 10453016}},
		{"near_uniform", "plan", [6]int64{3988992, 7925760, 0, 0, 4045440, 55664252}},
		{"near_uniform", "targets", [6]int64{4772992, 7925760, 0, 0, 4829440, 86973236}},
		{"stokes_adaptive", "plan", [6]int64{13376160, 23731200, 11151000, 11151000, 15464736, 23859720}},
		{"stokes_adaptive", "targets", [6]int64{20374704, 42647040, 2469600, 14918400, 19496232, 7993755}},
		{"stokes_adaptive", "shards", [6]int64{19190304, 24099840, 11151000, 11151000, 15859872, 23859720}},
		{"serve_cycle", "plan", [6]int64{2242240, 2636800, 3469200, 3469200, 2474304, 7423024}},
		{"serve_cycle", "targets", [6]int64{3030944, 4738560, 768320, 4641280, 2577008, 2486946}},
		{"serve_cycle", "shards", [6]int64{2888256, 2677760, 3469200, 3469200, 2518208, 7423024}},
		{"serve_cycle", "session", [6]int64{2827776, 3061760, 4829440, 4829440, 3053568, 10960440}},
	} {
		sh := shapes[tc.shape]
		pts, _ := randInput(sh.n, 1, 91)
		if sh.ellipse {
			pts, _ = ellipsoidInput(sh.n, 1, 91)
		}
		for _, workers := range []int{1, 2} {
			name := fmt.Sprintf("%s/%s/w%d", tc.shape, tc.mode, workers)
			opt := sh.opt
			opt.Workers = workers
			rec := pinnedApply(t, name, opt, tc.mode, pts)
			var got [6]int64
			for k, ph := range flopPhases {
				_, got[k] = rec.Phase(ph)
			}
			if got != tc.want {
				t.Errorf("%s: flops %#v, want %#v", name, got, tc.want)
			}
		}
	}
}

// pinnedApply builds mode's evaluation of pts under opt and returns the
// record of one Apply: of a plan, of a plan at a quarter as many distinct
// targets, of a two-shard plan, or of a Yukawa session after a step that
// moves one point in a hundred.
func pinnedApply(t *testing.T, name string, opt Options, mode string, pts []Point) ApplyStats {
	t.Helper()
	var targets []Point
	switch mode {
	case "targets":
		targets, _ = randInput(len(pts)/4, 1, 92)
	case "shards":
		opt.Shards = 2
	case "session":
		opt.Kernel = Yukawa
	}
	f, err := New(opt)
	if err != nil {
		t.Fatal(err)
	}
	_, den := randInput(len(pts), f.DensityDim(), 93)
	ctx := context.Background()
	if mode == "session" {
		s, err := f.NewSession(context.Background(), pts)
		if err != nil {
			t.Fatal(err)
		}
		moved, _ := randInput(len(pts)/100, 1, 94)
		d := Delta{Move: make([]PointMove, len(moved))}
		for k, p := range moved {
			d.Move[k] = PointMove{ID: 7 * k, To: p}
		}
		if _, err := s.Step(ctx, d); err != nil {
			t.Fatal(err)
		}
		_, rec, err := s.ApplyWithStats(ctx, den)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		return rec
	}
	p, err := f.PlanAt(ctx, targets, pts)
	if err != nil {
		t.Fatal(err)
	}
	_, rec, err := p.ApplyWithStats(ctx, den)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return rec
}
