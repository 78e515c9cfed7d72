package kifmm

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"kifmm/internal/geom"
)

// The façade's point type is the internal one, not a mirror of it: a pointer
// converts only between identical types.
var _ = func(p *Point) *geom.Point { return p }

func randInput(n int, sdim int, seed int64) ([]Point, []float64) {
	rng := rand.New(rand.NewSource(seed))
	pts := make([]Point, n)
	for i := range pts {
		pts[i] = Point{X: rng.Float64(), Y: rng.Float64(), Z: rng.Float64()}
	}
	den := make([]float64, n*sdim)
	for i := range den {
		den[i] = rng.NormFloat64()
	}
	return pts, den
}

func relErr(got, want []float64) float64 {
	var num, den float64
	for i := range got {
		d := got[i] - want[i]
		num += d * d
		den += want[i] * want[i]
	}
	return math.Sqrt(num / den)
}

func TestNewDefaults(t *testing.T) {
	f, err := New(Options{})
	if err != nil {
		t.Fatal(err)
	}
	if f.DensityDim() != 1 || f.PotentialDim() != 1 {
		t.Fatalf("laplace dims wrong")
	}
	fs, err := New(Options{Kernel: Stokes})
	if err != nil {
		t.Fatal(err)
	}
	if fs.DensityDim() != 3 || fs.PotentialDim() != 3 {
		t.Fatalf("stokes dims wrong")
	}
}

func TestNewRejectsBadOptions(t *testing.T) {
	if _, err := New(Options{Kernel: "helmholtz"}); err == nil {
		t.Fatalf("unknown kernel accepted")
	}
	if _, err := New(Options{Order: 1}); err == nil {
		t.Fatalf("order 1 accepted")
	}
	if _, err := New(Options{MaxDepth: 99}); err == nil {
		t.Fatalf("depth 99 accepted")
	}
}

func TestEvaluateMatchesDirect(t *testing.T) {
	f, err := New(Options{PointsPerBox: 30, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	pts, den := randInput(900, 1, 1)
	got, err := f.Evaluate(pts, den)
	if err != nil {
		t.Fatal(err)
	}
	want, err := f.Direct(pts, den)
	if err != nil {
		t.Fatal(err)
	}
	if e := relErr(got, want); e > 2e-5 {
		t.Fatalf("rel err %g", e)
	}
}

func TestEvaluateStokes(t *testing.T) {
	f, err := New(Options{Kernel: Stokes, Order: 4, PointsPerBox: 30, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	pts, den := randInput(400, 3, 2)
	got, err := f.Evaluate(pts, den)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := f.Direct(pts, den)
	if e := relErr(got, want); e > 5e-3 {
		t.Fatalf("stokes rel err %g", e)
	}
}

func TestEvaluateDistributedMatchesSequential(t *testing.T) {
	f, err := New(Options{PointsPerBox: 25, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	pts, den := randInput(1000, 1, 3)
	seq, err := f.Evaluate(pts, den)
	if err != nil {
		t.Fatal(err)
	}
	for _, ranks := range []int{1, 4} {
		dist, err := f.EvaluateDistributed(ranks, pts, den)
		if err != nil {
			t.Fatal(err)
		}
		// The distributed tree partitions space differently (complete
		// octree with rank-boundary refinement), so the two runs are
		// different same-accuracy approximations of the same sum.
		if e := relErr(dist, seq); e > 1e-5 {
			t.Fatalf("ranks=%d: distributed differs from sequential by %g", ranks, e)
		}
	}
}

func TestEvaluateDistributedValidation(t *testing.T) {
	f, _ := New(Options{})
	pts, den := randInput(10, 1, 4)
	if _, err := f.EvaluateDistributed(3, pts, den); err == nil {
		t.Fatalf("non-power-of-two ranks accepted")
	}
	if _, err := f.EvaluateDistributed(16, pts[:4], den[:4]); err == nil {
		t.Fatalf("too few points accepted")
	}
}

func TestInputValidation(t *testing.T) {
	f, _ := New(Options{})
	if _, err := f.Evaluate(nil, nil); err == nil {
		t.Fatalf("empty input accepted")
	}
	if _, err := f.Evaluate([]Point{{X: 0.5, Y: 0.5, Z: 0.5}}, []float64{1, 2}); err == nil {
		t.Fatalf("density length mismatch accepted")
	}
	if _, err := f.Evaluate([]Point{{X: 1.5, Y: 0.5, Z: 0.5}}, []float64{1}); err == nil {
		t.Fatalf("out-of-cube point accepted")
	}
}

func TestCoincidentPointsHandled(t *testing.T) {
	// Duplicate locations must not break evaluation or the distributed
	// coordinate matching; coincident targets get identical potentials.
	f, _ := New(Options{PointsPerBox: 10, MaxDepth: 8})
	pts := []Point{
		{X: 0.25, Y: 0.25, Z: 0.25}, {X: 0.25, Y: 0.25, Z: 0.25}, {X: 0.75, Y: 0.75, Z: 0.75},
		{X: 0.1, Y: 0.9, Z: 0.4}, {X: 0.6, Y: 0.2, Z: 0.8}, {X: 0.3, Y: 0.7, Z: 0.5},
	}
	den := []float64{1, 2, 3, -1, 0.5, 1.5}
	got, err := f.Evaluate(pts, den)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := f.Direct(pts, den)
	if e := relErr(got, want); e > 1e-4 {
		t.Fatalf("coincident points rel err %g", e)
	}
	if math.Abs(got[0]-got[1]) > 1e-12 {
		t.Fatalf("coincident targets should agree: %v vs %v", got[0], got[1])
	}
}

// TestDegenerateClouds drives the executor on tiny and empty graphs: every
// degenerate input is either a defined error or potentials that match the
// direct sum, at one worker and at two.
func TestDegenerateClouds(t *testing.T) {
	at := func(x, y, z float64) Point { return Point{X: x, Y: y, Z: z} }
	dens := func(n int) []float64 {
		_, den := randInput(n, 1, int64(n))
		return den
	}
	// A case's potentials and the direct sum over the same points, or its
	// error; depth is the plan's tree depth (plan cases only).
	type result struct {
		got, want []float64
		err       error
		depth     int
	}
	plan := func(pts []Point) func(f *FMM) result {
		return func(f *FMM) result {
			den := dens(len(pts))
			p, err := f.Plan(pts)
			if err != nil {
				return result{err: err}
			}
			got, err := p.Apply(den)
			if err != nil {
				return result{err: err}
			}
			want, err := f.Direct(pts, den)
			return result{got, want, err, p.tree.MaxLevel()}
		}
	}
	step := func(d func(ids []int) Delta) func(f *FMM) result {
		return func(f *FMM) result {
			pts, _ := randInput(300, 1, 41)
			s, err := f.NewSession(pts)
			if err != nil {
				return result{err: err}
			}
			if _, err := s.Step(context.Background(), d(s.IDs())); err != nil {
				return result{err: err}
			}
			den := dens(s.NumPoints())
			got, err := s.Apply(context.Background(), den)
			if err != nil {
				return result{err: err}
			}
			want, err := f.Direct(s.Points(), den)
			return result{got: got, want: want, err: err}
		}
	}
	coincident := make([]Point, 200)
	for i := range coincident {
		coincident[i] = at(0.3, 0.6, 0.9)
	}
	cloud, _ := randInput(300, 1, 43)
	dups := append([]Point(nil), cloud...)
	for i := 0; i < len(cloud); i += 3 {
		dups = append(dups, cloud[i])
	}
	const maxDepth = 12
	cases := []struct {
		name    string
		run     func(f *FMM) result
		wantErr string // empty: potentials must match the direct sum
		depth   int    // nonzero: the tree depth the case must reach
	}{
		{"no points", plan(nil), "no points", 0},
		{"all coincident", plan(coincident), "", maxDepth},
		{"one point", plan([]Point{at(0.5, 0.5, 0.5)}), "", 0},
		{"fewer than q", plan(cloud[:7]), "", 0},
		{"duplicates", plan(dups), "", 0},
		{"empty delta", step(func([]int) Delta { return Delta{} }), "", 0},
		{"move out of cube", step(func(ids []int) Delta {
			return Delta{Move: []PointMove{{ID: ids[0], To: at(1.5, 0.5, 0.5)}}}
		}), "outside the unit cube", 0},
	}
	for _, workers := range []int{1, 2} {
		f, err := New(Options{PointsPerBox: 20, Order: 4, MaxDepth: maxDepth, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		for _, tc := range cases {
			t.Run(fmt.Sprintf("%s/workers%d", tc.name, workers), func(t *testing.T) {
				r := tc.run(f)
				if tc.wantErr != "" {
					if r.err == nil || !strings.Contains(r.err.Error(), tc.wantErr) {
						t.Fatalf("error %v, want one containing %q", r.err, tc.wantErr)
					}
					return
				}
				if r.err != nil {
					t.Fatal(r.err)
				}
				if tc.depth != 0 && r.depth != tc.depth {
					t.Errorf("tree depth %d, want %d", r.depth, tc.depth)
				}
				if len(r.got) != len(r.want) {
					t.Fatalf("%d potentials, want %d", len(r.got), len(r.want))
				}
				var num, den float64
				for i, w := range r.want {
					if math.IsNaN(r.got[i]) || math.IsInf(r.got[i], 0) {
						t.Fatalf("potential %d is %v", i, r.got[i])
					}
					num += (r.got[i] - w) * (r.got[i] - w)
					den += w * w
				}
				if num > 1e-6*den || (den == 0 && num != 0) {
					t.Errorf("rel L2 err %g against the direct sum (|direct|² = %g)", math.Sqrt(num/den), den)
				}
			})
		}
	}
}

func TestPlanAtSeparateTargets(t *testing.T) {
	f, err := New(Options{PointsPerBox: 30, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	srcs, den := randInput(600, 1, 41)
	trgs, _ := randInput(200, 1, 42)
	plan, err := f.PlanAt(context.Background(), trgs, srcs)
	if err != nil {
		t.Fatal(err)
	}
	got, err := plan.Apply(den)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 200 {
		t.Fatalf("wrong output length %d", len(got))
	}
	// Exact reference: direct sum from sources to targets.
	var num, dn float64
	for i, tp := range trgs {
		var exact float64
		for j, sp := range srcs {
			dx, dy, dz := tp.X-sp.X, tp.Y-sp.Y, tp.Z-sp.Z
			r := math.Sqrt(dx*dx + dy*dy + dz*dz)
			if r == 0 {
				continue
			}
			exact += den[j] / (4 * math.Pi * r)
		}
		d := got[i] - exact
		num += d * d
		dn += exact * exact
	}
	if e := math.Sqrt(num / dn); e > 2e-5 {
		t.Fatalf("PlanAt rel err %g", e)
	}
}

func TestOptionAndInputValidation(t *testing.T) {
	// Every rejection path of New and Evaluate, table-driven.
	newCases := []struct {
		name string
		opt  Options
	}{
		{"unknown kernel", Options{Kernel: "helmholtz"}},
		{"negative yukawa lambda", Options{Kernel: Yukawa, YukawaLambda: -2}},
		{"order too low", Options{Order: 1}},
		{"order above MaxOrder", Options{Order: MaxOrder + 1}},
		{"excessive depth", Options{MaxDepth: 99}},
	}
	for _, c := range newCases {
		if _, err := New(c.opt); err == nil {
			t.Errorf("New accepted %s", c.name)
		}
	}

	f, err := New(Options{})
	if err != nil {
		t.Fatal(err)
	}
	in := []Point{{X: 0.5, Y: 0.5, Z: 0.5}}
	evalCases := []struct {
		name string
		pts  []Point
		den  []float64
	}{
		{"no points", nil, nil},
		{"density length mismatch", in, []float64{1, 2}},
		{"point outside unit cube", []Point{{X: 1.5, Y: 0.5, Z: 0.5}}, []float64{1}},
		{"negative coordinate", []Point{{X: -0.1, Y: 0.5, Z: 0.5}}, []float64{1}},
	}
	for _, c := range evalCases {
		if _, err := f.Evaluate(c.pts, c.den); err == nil {
			t.Errorf("Evaluate accepted %s", c.name)
		}
	}
	// A positive lambda stays valid (the default is applied at zero).
	if _, err := New(Options{Kernel: Yukawa, YukawaLambda: 3}); err != nil {
		t.Errorf("valid yukawa rejected: %v", err)
	}
}

// TestNonFiniteInputRejected: a NaN or ±Inf density is refused by the one
// density check before any engine sees it, on every entry that takes
// densities, and a non-finite coordinate by the unit-cube check of every
// entry that takes points. Either way the caller gets the error and no
// potentials, never a poisoned answer.
func TestNonFiniteInputRejected(t *testing.T) {
	pts, den := randInput(300, 1, 81)
	f, err := New(Options{Order: 4, PointsPerBox: 30})
	if err != nil {
		t.Fatal(err)
	}
	fs, err := New(Options{Order: 4, PointsPerBox: 30, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	plan, err := f.Plan(pts)
	if err != nil {
		t.Fatal(err)
	}
	sharded, err := fs.Plan(pts)
	if err != nil {
		t.Fatal(err)
	}
	sess, err := f.NewSession(pts)
	if err != nil {
		t.Fatal(err)
	}
	// withDensity returns a copy of den carrying v at index 7.
	withDensity := func(v float64) []float64 {
		d := append([]float64(nil), den...)
		d[7] = v
		return d
	}
	at := func(v float64) Point { return Point{X: 0.5, Y: v, Z: 0.5} }
	const badDensity, outside = "density 7 is not finite", "outside the unit cube"
	cases := []struct {
		name, want string
		run        func(v float64) ([]float64, error)
	}{
		{"Plan.Apply", badDensity, func(v float64) ([]float64, error) { return plan.Apply(withDensity(v)) }},
		{"sharded Plan.Apply", badDensity, func(v float64) ([]float64, error) { return sharded.Apply(withDensity(v)) }},
		{"Session.Apply", badDensity, func(v float64) ([]float64, error) { return sess.Apply(context.Background(), withDensity(v)) }},
		{"Evaluate", badDensity, func(v float64) ([]float64, error) { return f.Evaluate(pts, withDensity(v)) }},
		{"Plan points", outside, func(v float64) ([]float64, error) {
			_, err := f.Plan(append([]Point{at(v)}, pts...))
			return nil, err
		}},
		{"PlanAt targets", outside, func(v float64) ([]float64, error) {
			_, err := f.PlanAt(context.Background(), []Point{at(v)}, pts)
			return nil, err
		}},
		{"Session.Step Move", outside, func(v float64) ([]float64, error) {
			_, err := sess.Step(context.Background(), Delta{Move: []PointMove{{ID: 3, To: at(v)}}})
			return nil, err
		}},
		{"Session.Step Add", outside, func(v float64) ([]float64, error) {
			_, err := sess.Step(context.Background(), Delta{Add: []Point{at(v)}})
			return nil, err
		}},
	}
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		for _, c := range cases {
			pot, err := c.run(v)
			if err == nil || !strings.Contains(err.Error(), c.want) || pot != nil {
				t.Errorf("%s with %v: potentials %d, error %v; want none and one containing %q",
					c.name, v, len(pot), err, c.want)
			}
		}
	}
}

func TestPlanApplyMatchesEvaluate(t *testing.T) {
	f, err := New(Options{PointsPerBox: 30, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	pts, den := randInput(800, 1, 61)
	plan, err := f.Plan(pts)
	if err != nil {
		t.Fatal(err)
	}
	if plan.NumPoints() != 800 {
		t.Fatalf("NumPoints = %d", plan.NumPoints())
	}
	if plan.MemoryBytes() <= 0 {
		t.Fatalf("MemoryBytes = %d", plan.MemoryBytes())
	}
	want, err := f.Evaluate(pts, den)
	if err != nil {
		t.Fatal(err)
	}
	got, err := plan.Apply(den)
	if err != nil {
		t.Fatal(err)
	}
	if e := relErr(got, want); e > 1e-12 {
		t.Fatalf("plan vs evaluate differ by %g", e)
	}
	// Repeat applies with fresh densities must not carry state over.
	_, den2 := randInput(800, 1, 62)
	got2, err := plan.Apply(den2)
	if err != nil {
		t.Fatal(err)
	}
	want2, _ := f.Evaluate(pts, den2)
	if e := relErr(got2, want2); e > 1e-12 {
		t.Fatalf("second apply differs by %g", e)
	}
	if plan.Evaluations() != 2 {
		t.Fatalf("Evaluations = %d", plan.Evaluations())
	}
}

func TestPlanApplyConcurrent(t *testing.T) {
	f, err := New(Options{PointsPerBox: 25, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	pts, den := randInput(500, 1, 63)
	plan, err := f.Plan(pts)
	if err != nil {
		t.Fatal(err)
	}
	want, err := plan.Apply(den)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make([]error, 12)
	for g := 0; g < 12; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			got, err := plan.Apply(den)
			if err != nil {
				errs[g] = err
				return
			}
			if e := relErr(got, want); e > 1e-12 {
				errs[g] = fmt.Errorf("goroutine %d differs by %g", g, e)
			}
		}(g)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
}

func TestPlanValidation(t *testing.T) {
	f, _ := New(Options{})
	if _, err := f.Plan(nil); err == nil {
		t.Fatalf("empty point set accepted")
	}
	if _, err := f.Plan([]Point{{X: 3, Y: 0, Z: 0}}); err == nil {
		t.Fatalf("out-of-cube point accepted")
	}
	plan, err := f.Plan([]Point{{X: 0.5, Y: 0.5, Z: 0.5}, {X: 0.25, Y: 0.75, Z: 0.5}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := plan.Apply([]float64{1}); err == nil {
		t.Fatalf("density length mismatch accepted")
	}
}

// TestPlanDoesNotRetainInput pins the ownership contract of the point slice:
// Plan and NewSession read it and keep no reference, so a caller may reuse
// the slice while the plan or session lives.
func TestPlanDoesNotRetainInput(t *testing.T) {
	for _, workers := range []int{1, 2} {
		t.Run(fmt.Sprintf("workers%d", workers), func(t *testing.T) {
			f, err := New(Options{Order: 4, Workers: workers})
			if err != nil {
				t.Fatal(err)
			}
			pts, den := randInput(2000, 1, 71)
			pristine := append([]Point(nil), pts...)
			plan, err := f.Plan(pts)
			if err != nil {
				t.Fatal(err)
			}
			sess, err := f.NewSession(pts)
			if err != nil {
				t.Fatal(err)
			}
			ref, err := f.NewSession(pristine)
			if err != nil {
				t.Fatal(err)
			}
			same := func(what string, got, want []float64) {
				t.Helper()
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("%s: potential %d changed after the input slice was overwritten: %v != %v",
							what, i, got[i], want[i])
					}
				}
			}
			must := func(v []float64, err error) []float64 {
				t.Helper()
				if err != nil {
					t.Fatal(err)
				}
				return v
			}
			wantPlan, wantSess := must(plan.Apply(den)), must(sess.Apply(context.Background(), den))
			for i := range pts {
				pts[i] = Point{X: 0.5, Y: 0.5, Z: 0.5}
			}
			same("plan", must(plan.Apply(den)), wantPlan)
			same("session", must(sess.Apply(context.Background(), den)), wantSess)

			// A step re-plans from the session's own coordinates: they must
			// still be the originals.
			var d Delta
			for id := 0; id < len(pts)/2; id++ {
				d.Move = append(d.Move, PointMove{ID: id, To: pristine[len(pts)-1-id]})
			}
			for _, s := range []*Session{sess, ref} {
				if _, err := s.Step(context.Background(), d); err != nil {
					t.Fatal(err)
				}
			}
			same("session after re-plan", must(sess.Apply(context.Background(), den)), must(ref.Apply(context.Background(), den)))
		})
	}
}
