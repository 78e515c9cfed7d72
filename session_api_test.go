package kifmm

import (
	"context"
	"math/rand"
	"testing"
)

// zeroDensityUnion is the oracle of asymmetric evaluation: the targets folded
// into a symmetric evaluation as zero-density points, which leaves every
// source contribution unchanged and skips nothing.
func zeroDensityUnion(f *FMM, targets, sources []Point, densities []float64) ([]float64, error) {
	sd, td := f.DensityDim(), f.PotentialDim()
	all := append(append([]Point(nil), targets...), sources...)
	den := make([]float64, len(all)*sd)
	copy(den[len(targets)*sd:], densities)
	pot, err := f.Evaluate(all, den)
	if err != nil {
		return nil, err
	}
	return pot[:len(targets)*td], nil
}

// TestTargetsMatchesMaskedOracle checks the asymmetric-evaluation contract:
// a PlanAt plan must produce exactly what the symmetric zero-density-target
// trick produces — the masks only ever skip
// terms that are exactly zero.
func TestTargetsMatchesMaskedOracle(t *testing.T) {
	cases := []struct {
		name string
		opt  Options
	}{
		{"fft", Options{PointsPerBox: 30}},
		{"dense", Options{PointsPerBox: 30, denseM2L: true}},
		{"dag", Options{PointsPerBox: 30, Workers: 4}},
		{"stokes", Options{Kernel: Stokes, PointsPerBox: 30}},
	}
	srcs, _ := randInput(600, 1, 51)
	trgs, _ := randInput(180, 1, 52)
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			f, err := New(tc.opt)
			if err != nil {
				t.Fatal(err)
			}
			den := make([]float64, 600*f.DensityDim())
			rng := rand.New(rand.NewSource(53))
			for i := range den {
				den[i] = rng.NormFloat64()
			}
			p, err := f.PlanAt(context.Background(), trgs, srcs)
			if err != nil {
				t.Fatal(err)
			}
			if p.NumPoints() != 600 || p.NumTargets() != 180 {
				t.Fatalf("plan counts: %d sources, %d targets", p.NumPoints(), p.NumTargets())
			}
			got, err := p.Apply(den)
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != 180*f.PotentialDim() {
				t.Fatalf("output length %d", len(got))
			}
			want, err := zeroDensityUnion(f, trgs, srcs, den)
			if err != nil {
				t.Fatal(err)
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("asymmetric eval diverges from masked oracle at %d: %v vs %v", i, got[i], want[i])
				}
			}
		})
	}
}

func TestTargetsValidation(t *testing.T) {
	srcs, _ := randInput(100, 1, 54)
	f, err := New(Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.PlanAt(context.Background(), []Point{{X: 2, Y: 0, Z: 0}}, srcs); err == nil {
		t.Fatal("out-of-cube target accepted")
	}
	// No targets is the symmetric plan, by contract.
	if p, err := f.PlanAt(context.Background(), nil, srcs); err != nil || p.NumTargets() != 0 || p.NumPoints() != len(srcs) {
		t.Fatalf("PlanAt(nil, sources): %v", err)
	}
	sharded, err := New(Options{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sharded.PlanAt(context.Background(), []Point{{X: 0.5, Y: 0.5, Z: 0.5}}, srcs); err == nil {
		t.Fatal("targets with Shards accepted")
	}
}

// TestSessionMatchesEvaluate drives the public session API and checks each
// step's Apply against a stateless Evaluate over the session's point set.
func TestSessionMatchesEvaluate(t *testing.T) {
	f, err := New(Options{PointsPerBox: 25, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	pts, den := randInput(500, 1, 61)
	s, err := f.NewSession(context.Background(), pts)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(62))
	cur := append([]Point(nil), pts...) // by ID
	for step := 0; step < 3; step++ {
		var d Delta
		ids := s.IDs()
		for _, id := range ids[:len(ids)/4] {
			to := Point{X: rng.Float64(), Y: rng.Float64(), Z: rng.Float64()}
			d.Move = append(d.Move, PointMove{ID: id, To: to})
		}
		for i := 0; i < 8; i++ {
			d.Add = append(d.Add, Point{X: rng.Float64(), Y: rng.Float64(), Z: rng.Float64()})
		}
		d.Remove = append(d.Remove, ids[len(ids)-1], ids[len(ids)-3])
		info, err := s.Step(context.Background(), d)
		if err != nil {
			t.Fatal(err)
		}
		if info.Added != 8 || len(info.AddedIDs) != 8 || info.Removed != 2 {
			t.Fatalf("step info %+v", info)
		}
		for _, mv := range d.Move {
			cur[mv.ID] = mv.To
		}
		for i, id := range info.AddedIDs {
			for id >= len(cur) {
				cur = append(cur, Point{})
			}
			cur[id] = d.Add[i]
		}
		alive := make(map[int]bool)
		for _, id := range s.IDs() {
			alive[id] = true
		}
		var live []Point
		for id := 0; id < len(cur); id++ {
			if alive[id] {
				live = append(live, cur[id])
			}
		}
		if len(live) != s.NumPoints() {
			t.Fatalf("bookkeeping drift: %d vs %d", len(live), s.NumPoints())
		}
		den = den[:0]
		for range live {
			den = append(den, rng.NormFloat64())
		}
		got, err := s.Apply(context.Background(), den)
		if err != nil {
			t.Fatal(err)
		}
		want, err := f.Evaluate(live, den)
		if err != nil {
			t.Fatal(err)
		}
		if e := relErr(got, want); e > 1e-9 {
			t.Fatalf("step %d: session vs Evaluate rel err %g", step, e)
		}
	}
	st := s.Stats()
	if st.Steps != 3 || st.Evals != 3 {
		t.Fatalf("stats %+v", st)
	}
	if s.MemoryBytes() <= 0 {
		t.Fatal("MemoryBytes should be positive")
	}
}

func TestNewSessionRejections(t *testing.T) {
	f, _ := New(Options{})
	if _, err := f.NewSession(context.Background(), nil); err == nil {
		t.Fatal("empty session accepted")
	}
	if _, err := f.NewSession(context.Background(), []Point{{X: -1, Y: 0, Z: 0}}); err == nil {
		t.Fatal("out-of-cube session point accepted")
	}
}
