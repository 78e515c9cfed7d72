package kifmm

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"testing"

	"kifmm/internal/diag"
	"kifmm/internal/geom"
)

// freshApply is the session oracle: a plan built from scratch over the
// session's live points, applied to the same densities.
func freshApply(f *FMM, s *Session, den []float64) ([]float64, error) {
	p, err := f.Plan(s.Points())
	if err != nil {
		return nil, err
	}
	return p.Apply(den)
}

// sameBits fails unless got and want are equal element for element.
func sameBits(t testing.TB, label string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d values, want %d", label, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s: value %d is %v, want %v", label, i, got[i], want[i])
		}
	}
}

func clampUnit(v float64) float64 {
	return min(max(v, 0), math.Nextafter(1, 0))
}

func randDensities(rng *rand.Rand, n int) []float64 {
	den := make([]float64, n)
	for i := range den {
		den[i] = rng.Float64()*2 - 1
	}
	return den
}

// randomDelta builds a delta over the session's live IDs: mostly small
// jitter, some teleports across the cube, plus additions and removals.
func randomDelta(rng *rand.Rand, s *Session, moveFrac, teleportFrac float64, adds, removes int) Delta {
	ids, pts := s.IDs(), s.Points()
	var d Delta
	for k, id := range ids {
		r := rng.Float64()
		if r < teleportFrac {
			d.Move = append(d.Move, PointMove{ID: id, To: Point{X: rng.Float64(), Y: rng.Float64(), Z: rng.Float64()}})
		} else if r < teleportFrac+moveFrac {
			p := pts[k]
			const sigma = 0.01
			d.Move = append(d.Move, PointMove{ID: id, To: Point{
				X: clampUnit(p.X + sigma*rng.NormFloat64()),
				Y: clampUnit(p.Y + sigma*rng.NormFloat64()),
				Z: clampUnit(p.Z + sigma*rng.NormFloat64()),
			}})
		}
	}
	for i := 0; i < adds; i++ {
		d.Add = append(d.Add, Point{X: rng.Float64(), Y: rng.Float64(), Z: rng.Float64()})
	}
	for i := 0; i < removes && len(ids) > 0; i++ {
		k := rng.Intn(len(ids))
		d.Remove = append(d.Remove, ids[k])
		ids = slices.Delete(ids, k, k+1)
	}
	return d
}

// TestStepMatchesFreshPlan: after every step of a delta sequence — jitter,
// teleports, additions, removals, a dense cluster that refines the tree and
// an emptied region that coarsens it — a session's Apply equals a fresh
// Plan.Apply over its points bit for bit, for every kernel on uniform and
// ellipsoid clouds, at one and two workers and, for one cloud, sharded.
func TestStepMatchesFreshPlan(t *testing.T) {
	kernels := []struct {
		name KernelName
		n    int
	}{{Laplace, 700}, {Stokes, 400}, {Yukawa, 500}}
	dists := []struct {
		name string
		d    geom.Distribution
	}{{"uniform", geom.Uniform}, {"ellipsoid", geom.Ellipsoid}}
	for _, kc := range kernels {
		for _, dc := range dists {
			t.Run(string(kc.name)+"/"+dc.name, func(t *testing.T) {
				type row struct {
					name            string
					workers, shards int
				}
				rows := []row{{"workers1", 1, 0}, {"workers2", 2, 0}}
				if kc.name == Laplace && dc.name == "uniform" {
					rows = append(rows, row{"shards2", 2, 2})
				}
				for _, row := range rows {
					t.Run(row.name, func(t *testing.T) {
						f, err := New(Options{Kernel: kc.name, Order: 4, PointsPerBox: 25, MaxDepth: 12,
							Workers: row.workers, Shards: row.shards})
						if err != nil {
							t.Fatal(err)
						}
						s, err := f.NewSession(geom.Generate(dc.d, kc.n, 7))
						if err != nil {
							t.Fatal(err)
						}
						rng := rand.New(rand.NewSource(42))
						for step := 0; step < 6; step++ {
							d := randomDelta(rng, s, 0.15, 0.03, 15, 10)
							if step == 3 {
								for i := 0; i < 60; i++ {
									d.Add = append(d.Add, Point{
										X: clampUnit(0.3 + 0.004*rng.NormFloat64()),
										Y: clampUnit(0.3 + 0.004*rng.NormFloat64()),
										Z: clampUnit(0.3 + 0.004*rng.NormFloat64()),
									})
								}
							}
							if step == 5 {
								d = Delta{}
								ids, pts := s.IDs(), s.Points()
								for i, id := range ids {
									if p := pts[i]; p.X < 0.6 && p.Y < 0.6 && p.Z < 0.6 {
										d.Remove = append(d.Remove, id)
									}
								}
							}
							if _, err := s.Step(context.Background(), d); err != nil {
								t.Fatalf("step %d: %v", step, err)
							}
							den := randDensities(rng, s.NumPoints()*f.DensityDim())
							got, err := s.Apply(context.Background(), den)
							if err != nil {
								t.Fatalf("step %d: apply: %v", step, err)
							}
							want, err := freshApply(f, s, den)
							if err != nil {
								t.Fatal(err)
							}
							sameBits(t, fmt.Sprintf("step %d: session vs fresh plan", step), got, want)
						}
					})
				}
			})
		}
	}
}

// TestStepErrors: every malformed delta is refused and leaves the session's
// IDs, points and potentials as they were; a removal beats a move of the
// same ID, and of two moves of one ID the last wins.
func TestStepErrors(t *testing.T) {
	f, err := New(Options{Order: 4, PointsPerBox: 10, denseM2L: true})
	if err != nil {
		t.Fatal(err)
	}
	s, err := f.NewSession(geom.Generate(geom.Uniform, 50, 1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Step(context.Background(), Delta{Remove: []int{7}}); err != nil {
		t.Fatal(err)
	}
	den := randDensities(rand.New(rand.NewSource(2)), 49)
	ids, pts := s.IDs(), s.Points()
	before, err := s.Apply(context.Background(), den)
	if err != nil {
		t.Fatal(err)
	}
	mid := Point{X: 0.5, Y: 0.5, Z: 0.5}
	all := append([]int(nil), ids...)
	for i, d := range []Delta{
		{Move: []PointMove{{ID: 99, To: mid}}},
		{Move: []PointMove{{ID: 7, To: mid}}}, // removed by the first step
		{Move: []PointMove{{ID: -1, To: mid}}},
		{Move: []PointMove{{ID: 0, To: Point{X: 1.5, Y: 0.5, Z: 0.5}}}},
		{Add: []Point{{X: -0.1, Y: 0, Z: 0}}},
		{Add: []Point{{X: math.NaN(), Y: 0, Z: 0}}},
		{Remove: []int{77}},
		{Remove: []int{7}},
		{Remove: []int{3, 3}},
		{Remove: all},
		{Move: []PointMove{{ID: 0, To: mid}}, Add: []Point{mid}, Remove: []int{1, 2, 1}},
	} {
		if _, err := s.Step(context.Background(), d); err == nil {
			t.Fatalf("case %d: delta %+v accepted", i, d)
		}
		if !slices.Equal(s.IDs(), ids) || !slices.Equal(s.Points(), pts) {
			t.Fatalf("case %d: a refused step changed the session's points", i)
		}
		after, err := s.Apply(context.Background(), den)
		if err != nil {
			t.Fatal(err)
		}
		sameBits(t, fmt.Sprintf("case %d: potentials after a refused step", i), after, before)
	}
	if _, err := s.Apply(context.Background(), den[:10]); err == nil {
		t.Fatal("density length mismatch accepted")
	}

	a, b := Point{X: 0.1, Y: 0.2, Z: 0.3}, Point{X: 0.7, Y: 0.8, Z: 0.9}
	info, err := s.Step(context.Background(), Delta{
		Move:   []PointMove{{ID: 0, To: a}, {ID: 1, To: a}, {ID: 0, To: b}},
		Remove: []int{1},
	})
	if err != nil {
		t.Fatal(err)
	}
	if info.Moved != 2 || info.Removed != 1 || s.NumPoints() != 48 {
		t.Fatalf("step info %+v, %d points", info, s.NumPoints())
	}
	if got := s.Points()[0]; got != b {
		t.Fatalf("point 0 at %v after two moves, want the last, %v", got, b)
	}
	if slices.Contains(s.IDs(), 1) {
		t.Fatal("a moved and removed point survived")
	}

	// A well-formed delta whose plan cannot be built — two shards over what
	// would be one leaf — is refused the same way.
	fs, err := New(Options{Order: 4, PointsPerBox: 10, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	ss, err := fs.NewSession(geom.Generate(geom.Uniform, 40, 3))
	if err != nil {
		t.Fatal(err)
	}
	ids, pts = ss.IDs(), ss.Points()
	den = randDensities(rand.New(rand.NewSource(4)), len(ids))
	if before, err = ss.Apply(context.Background(), den); err != nil {
		t.Fatal(err)
	}
	if _, err := ss.Step(context.Background(), Delta{Move: []PointMove{{ID: 0, To: mid}}, Remove: ids[3:]}); err == nil {
		t.Fatal("a sharded step down to one leaf accepted")
	}
	if !slices.Equal(ss.IDs(), ids) || !slices.Equal(ss.Points(), pts) {
		t.Fatal("a step whose plan failed changed the session's points")
	}
	after, err := ss.Apply(context.Background(), den)
	if err != nil {
		t.Fatal(err)
	}
	sameBits(t, "potentials after a step whose plan failed", after, before)
}

// TestRemoveAllButOne drains the session to a single point by halving it,
// matching a fresh plan bit for bit at every size; emptying it is refused.
func TestRemoveAllButOne(t *testing.T) {
	f, err := New(Options{Order: 4, PointsPerBox: 10, MaxDepth: 12})
	if err != nil {
		t.Fatal(err)
	}
	s, err := f.NewSession(geom.Generate(geom.Uniform, 300, 23))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	for s.NumPoints() > 1 {
		ids := s.IDs()
		if _, err := s.Step(context.Background(), Delta{Remove: ids[:max(1, len(ids)/2)]}); err != nil {
			t.Fatal(err)
		}
		den := randDensities(rng, s.NumPoints())
		got, err := s.Apply(context.Background(), den)
		if err != nil {
			t.Fatal(err)
		}
		want, err := freshApply(f, s, den)
		if err != nil {
			t.Fatal(err)
		}
		sameBits(t, fmt.Sprintf("%d points", s.NumPoints()), got, want)
	}
	if _, err := s.Step(context.Background(), Delta{Remove: s.IDs()}); err == nil {
		t.Fatal("emptying the session should error")
	}
}

// TestSessionReportsPhases: a session with a profile attached reports its
// evaluations like a plan does — engine phase times and flops and the task
// graph's scheduler counters — and keeps reporting across steps, which
// replace its plan.
func TestSessionReportsPhases(t *testing.T) {
	f, err := New(Options{Order: 4, PointsPerBox: 25, MaxDepth: 12, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	pts := geom.Generate(geom.Uniform, 600, 11)
	s, err := f.NewSession(pts)
	if err != nil {
		t.Fatal(err)
	}
	prof := diag.NewProfile()
	s.SetProfile(prof)
	den := make([]float64, len(pts))
	for i := range den {
		den[i] = float64(i%7) - 3
	}
	if _, err := s.Apply(context.Background(), den); err != nil {
		t.Fatal(err)
	}
	for _, ph := range []string{diag.PhaseVList, diag.PhaseUList} {
		if prof.Time(ph) <= 0 || prof.Flops(ph) <= 0 {
			t.Errorf("%s: %v, %d flops after one Apply", ph, prof.Time(ph), prof.Flops(ph))
		}
	}
	if _, err := s.Step(context.Background(), Delta{Move: []PointMove{{ID: 0, To: Point{X: 0.5, Y: 0.5, Z: 0.5}}}}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Apply(context.Background(), den); err != nil {
		t.Fatal(err)
	}
	if n := prof.Counter(diag.CounterSchedGraphs); n != 2 {
		t.Errorf("sched_graphs = %d after an Apply on each side of a step, want 2", n)
	}
}

// TestSessionConcurrentUse: Steps and Applies from several goroutines
// serialize on the session's lock (run it under -race), and the session ends
// equal to a fresh plan of its points.
func TestSessionConcurrentUse(t *testing.T) {
	f, err := New(Options{Order: 4, PointsPerBox: 20, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	const n = 300
	s, err := f.NewSession(geom.Generate(geom.Uniform, n, 13))
	if err != nil {
		t.Fatal(err)
	}
	den := randDensities(rand.New(rand.NewSource(14)), n)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < 5; i++ {
				var err error
				if g%2 == 0 {
					_, err = s.Step(context.Background(), Delta{Move: []PointMove{{ID: rng.Intn(n), To: Point{X: rng.Float64(), Y: rng.Float64(), Z: rng.Float64()}}}})
				} else {
					_, err = s.Apply(context.Background(), den)
				}
				if err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if st := s.Stats(); st.Steps != 10 || st.Evals != 10 {
		t.Fatalf("stats %+v, want 10 steps and 10 evaluations", st)
	}
	got, err := s.Apply(context.Background(), den)
	if err != nil {
		t.Fatal(err)
	}
	want, err := freshApply(f, s, den)
	if err != nil {
		t.Fatal(err)
	}
	sameBits(t, "after concurrent use", got, want)
}

// FuzzSessionStep drives a session through a byte-decoded sequence of
// deltas — unknown and dead IDs, duplicate removals, points outside the
// cube, deltas that would empty the session — against a plain model of the
// point set by ID. A refused step must leave IDs, Points and the next Apply
// exactly as they were; an accepted one must leave the model's points, and
// Apply must equal a fresh Plan.Apply of them bit for bit. Every delta is
// one header byte (move, add and remove counts, and a flag that removes
// every live ID) followed by its moves (an ID byte and three coordinate
// bytes each), additions (three coordinate bytes) and removals (an ID byte).
// The corpus is in testdata/fuzz; `make fuzz` runs it for 10 s.
func FuzzSessionStep(f *testing.F) {
	solver, err := New(Options{Order: 3, PointsPerBox: 6, MaxDepth: 8})
	if err != nil {
		f.Fatal(err)
	}
	init := geom.Generate(geom.Uniform, 40, 3)
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := solver.NewSession(init)
		if err != nil {
			t.Fatal(err)
		}
		pos := append([]Point(nil), init...) // the model, by ID
		alive := make([]bool, len(pos))
		for i := range alive {
			alive[i] = true
		}
		next := func() int {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return int(b)
		}
		// IDs run from -2 to four past the last one issued; coordinates from
		// -0.05 to 1.06, so both ends fall outside the cube.
		pickID := func() int { return next()%(len(pos)+6) - 2 }
		coord := func() float64 { return float64(next())/230 - 0.05 }
		point := func() Point { return Point{X: coord(), Y: coord(), Z: coord()} }
		rng := rand.New(rand.NewSource(1))
		for round := 0; len(data) > 0 && round < 8; round++ {
			h := next()
			var d Delta
			for range h & 3 {
				d.Move = append(d.Move, PointMove{ID: pickID(), To: point()})
			}
			for range (h >> 2) & 3 {
				d.Add = append(d.Add, point())
			}
			for range (h >> 4) & 3 {
				d.Remove = append(d.Remove, pickID())
			}
			if h&64 != 0 {
				d.Remove = append(d.Remove, s.IDs()...)
			}

			cube := geom.UnitCube()
			ok := true
			live := func(id int) bool { return id >= 0 && id < len(alive) && alive[id] }
			for _, mv := range d.Move {
				ok = ok && live(mv.ID) && cube.Contains(mv.To)
			}
			for _, p := range d.Add {
				ok = ok && cube.Contains(p)
			}
			removed := map[int]bool{}
			for _, id := range d.Remove {
				ok = ok && live(id) && !removed[id]
				removed[id] = true
			}
			nLive := len(d.Add) - len(d.Remove)
			for _, a := range alive {
				if a {
					nLive++
				}
			}
			ok = ok && nLive > 0

			ids, pts := s.IDs(), s.Points()
			den := randDensities(rng, len(ids))
			before, err := s.Apply(context.Background(), den)
			if err != nil {
				t.Fatal(err)
			}
			_, err = s.Step(context.Background(), d)
			if (err == nil) != ok {
				t.Fatalf("round %d: delta %+v: Step error %v, model accepts it: %v", round, d, err, ok)
			}
			if err != nil {
				if !slices.Equal(s.IDs(), ids) || !slices.Equal(s.Points(), pts) {
					t.Fatalf("round %d: a refused step changed the session's points", round)
				}
				after, err := s.Apply(context.Background(), den)
				if err != nil {
					t.Fatal(err)
				}
				sameBits(t, fmt.Sprintf("round %d: potentials after a refused step", round), after, before)
				continue
			}
			for _, mv := range d.Move {
				pos[mv.ID] = mv.To
			}
			for _, id := range d.Remove {
				alive[id] = false
			}
			for _, p := range d.Add {
				pos = append(pos, p)
				alive = append(alive, true)
			}
			if want := livePoints(pos, alive, nLive); !slices.Equal(s.Points(), want) {
				t.Fatalf("round %d: session points %v, model %v", round, s.Points(), want)
			}
			den = randDensities(rng, nLive)
			got, err := s.Apply(context.Background(), den)
			if err != nil {
				t.Fatal(err)
			}
			want, err := freshApply(solver, s, den)
			if err != nil {
				t.Fatal(err)
			}
			sameBits(t, fmt.Sprintf("round %d: session vs fresh plan", round), got, want)
		}
	})
}

// BenchmarkSessionStep measures what a session step costs on a 100k-point
// uniform cloud: a step that teleports 0.1 %, 1 % or 10 % of the points, on
// its own (step-*) and followed by one Apply (step+apply-*), beside Plan +
// Apply of the same cloud with a warm solver (plan+apply), which is what a
// step does.
func BenchmarkSessionStep(b *testing.B) {
	const n = 100_000
	pts := geom.Generate(geom.Uniform, n, 1)
	f, err := New(Options{Workers: runtime.GOMAXPROCS(0)})
	if err != nil {
		b.Fatal(err)
	}
	den := randDensities(rand.New(rand.NewSource(2)), n)
	for _, frac := range []struct {
		name  string
		nMove int
	}{{"0.1pct", n / 1000}, {"1pct", n / 100}, {"10pct", n / 10}} {
		for _, apply := range []bool{false, true} {
			name := "step-" + frac.name
			if apply {
				name = "step+apply-" + frac.name
			}
			b.Run(name, func(b *testing.B) {
				s, err := f.NewSession(pts)
				if err != nil {
					b.Fatal(err)
				}
				rng := rand.New(rand.NewSource(3))
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					b.StopTimer()
					d := Delta{Move: make([]PointMove, frac.nMove)}
					for j := range d.Move {
						d.Move[j] = PointMove{ID: rng.Intn(n), To: Point{X: rng.Float64(), Y: rng.Float64(), Z: rng.Float64()}}
					}
					b.StartTimer()
					if _, err := s.Step(context.Background(), d); err != nil {
						b.Fatal(err)
					}
					if apply {
						if _, err := s.Apply(context.Background(), den); err != nil {
							b.Fatal(err)
						}
					}
				}
			})
		}
	}
	b.Run("plan+apply", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			p, err := f.Plan(pts)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := p.Apply(den); err != nil {
				b.Fatal(err)
			}
		}
	})
}
