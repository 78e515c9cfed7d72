package kifmm

import (
	"context"
	"encoding/json"
	"testing"

	"kifmm/internal/geom"
)

// ellipsoidInput samples the paper's 1:1:4 ellipsoid surface (the
// distribution that drives deep adaptive refinement) and pairs it with
// Gaussian densities.
func ellipsoidInput(n, sdim int, seed int64) ([]Point, []float64) {
	gp := geom.Generate(geom.Ellipsoid, n, seed)
	pts := make([]Point, len(gp))
	for i, p := range gp {
		pts[i] = Point{X: p.X, Y: p.Y, Z: p.Z}
	}
	_, den := randInput(n, sdim, seed+1)
	return pts, den
}

// TestExecModesBitIdentical is the public-API differential test of the one
// executor: for every kernel and both particle distributions, Plan.Apply on
// two and four workers must be bit-identical (exact float64 equality, not
// tolerance) to Plan.Apply on one, because the task graph's dependency edges
// fix every accumulation order whatever the schedule. The independent
// reference lives in internal/kifmm, which holds the graph to the sequential
// walk of the phase table on fresh and session-edited trees.
func TestExecModesBitIdentical(t *testing.T) {
	cases := []struct {
		name      string
		kernel    KernelName
		ellipsoid bool
		dense     bool
	}{
		{"laplace-uniform-fft", Laplace, false, false},
		{"laplace-ellipsoid-dense", Laplace, true, true},
		{"stokes-ellipsoid-fft", Stokes, true, false},
		{"yukawa-uniform-dense", Yukawa, false, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			newPlan := func(workers int) (*Plan, []Point, []float64) {
				opt := Options{
					Kernel:       tc.kernel,
					PointsPerBox: 40,
					Workers:      workers,
					denseM2L:     tc.dense,
				}
				if tc.kernel == Yukawa {
					opt.YukawaLambda = 1.5
				}
				f, err := New(opt)
				if err != nil {
					t.Fatal(err)
				}
				var pts []Point
				var den []float64
				if tc.ellipsoid {
					pts, den = ellipsoidInput(1500, f.DensityDim(), 11)
				} else {
					pts, den = randInput(1500, f.DensityDim(), 11)
				}
				p, err := f.Plan(pts)
				if err != nil {
					t.Fatal(err)
				}
				return p, pts, den
			}

			p1, _, den := newPlan(1)
			want, err := p1.Apply(den)
			if err != nil {
				t.Fatal(err)
			}
			for _, workers := range []int{2, 4} {
				p, _, _ := newPlan(workers)
				got, err := p.Apply(den)
				if err != nil {
					t.Fatal(err)
				}
				if len(got) != len(want) {
					t.Fatalf("length mismatch: %d vs %d", len(got), len(want))
				}
				for i := range got {
					if got[i] != want[i] {
						t.Fatalf("potential[%d]: %d workers %v != 1 worker %v (diff %g)",
							i, workers, got[i], want[i], got[i]-want[i])
					}
				}
			}
		})
	}
}

// TestExecModeSharedPlan checks that a plan is deterministic across
// repeated Apply calls and across Apply/ApplyTraced, and that the trace
// document is well-formed Chrome trace_event JSON.
func TestExecModeSharedPlan(t *testing.T) {
	f, err := New(Options{PointsPerBox: 40, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	pts, den := ellipsoidInput(1200, 1, 3)
	p, err := f.Plan(pts)
	if err != nil {
		t.Fatal(err)
	}
	a, err := p.Apply(den)
	if err != nil {
		t.Fatal(err)
	}
	b, tr, err := p.ApplyTraced(context.Background(), den)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("ApplyTraced diverged at %d: %v vs %v", i, a[i], b[i])
		}
	}
	var doc struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Ph   string  `json:"ph"`
			Ts   float64 `json:"ts"`
			Dur  float64 `json:"dur"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(tr, &doc); err != nil {
		t.Fatalf("trace not valid JSON: %v", err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("empty trace")
	}
	for _, ev := range doc.TraceEvents {
		if ev.Ph != "X" || ev.Name == "" {
			t.Fatalf("malformed event %+v", ev)
		}
	}
}

// TestExecValidation pins that no option chooses an execution path: Apply
// runs the task graph at every worker count, one worker and the default
// included. A task-graph run is one that scheduled tasks.
func TestExecValidation(t *testing.T) {
	pts, den := randInput(300, 1, 5)
	for _, opt := range []Options{{}, {Workers: 1}, {Workers: 2}, {Workers: 4}} {
		f, err := New(opt)
		if err != nil {
			t.Fatal(err)
		}
		p, err := f.Plan(pts)
		if err != nil {
			t.Fatal(err)
		}
		_, stats, err := p.apply(context.Background(), den, nil)
		if err != nil {
			t.Fatal(err)
		}
		if stats.Tasks == 0 {
			t.Errorf("Workers %d: Apply scheduled no tasks", opt.Workers)
		}
	}
}
