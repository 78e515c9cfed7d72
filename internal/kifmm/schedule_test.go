package kifmm

import (
	"context"
	"errors"
	"math/rand"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"kifmm/internal/geom"
	"kifmm/internal/kernel"
	"kifmm/internal/octree"
)

// TestPlanCompilesScheduleOnce checks that a plan's graph is plan state: a
// pool compiles it once, at Compile, and twenty evaluations from four
// goroutines at once — each on an engine of the pool — compile nothing and
// leave potentials bit-identical to the first, on a symmetric and a
// split-role (PlanAt) tree.
func TestPlanCompilesScheduleOnce(t *testing.T) {
	var compiles atomic.Int32
	onCompile = func(lo, hi int) { compiles.Add(1) }
	defer func() { onCompile = nil }()
	tr := octree.Build(geom.Generate(geom.Ellipsoid, 3000, 7), 25, 20)
	tr.BuildLists(nil)
	spec := EngineSpec{Ops: NewOperators(kernel.Laplace{}, 4, 1e-9), Workers: 2}
	for _, nLead := range []int{0, 1000} {
		compiles.Store(0)
		pool := spec.NewPool(tr, nLead)
		pool.Compile(false)
		den := randDensities(rand.New(rand.NewSource(8)), len(tr.Points)-nLead, 1)
		apply := func() []float64 {
			e := pool.Get()
			e.SetDensitiesMasked(den, nLead)
			if _, err := e.Run(context.Background(), nil, nil); err != nil {
				t.Error(err)
			}
			out := e.PointPotentials()
			pool.Put(e)
			return out
		}
		want := apply()
		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for k := 0; k < 5; k++ {
					got := apply()
					for i := range got {
						if got[i] != want[i] {
							t.Errorf("nLead %d, goroutine %d, apply %d: potential %d differs: %v vs %v", nLead, g, k, i, got[i], want[i])
							return
						}
					}
				}
			}()
		}
		wg.Wait()
		if n := compiles.Load(); n != 1 {
			t.Errorf("nLead %d: %d graphs compiled for 21 evaluations, want 1", nLead, n)
		}
	}
}

// TestStoppedRunRecovers stops a full-graph run part way — cancelled, and by
// a body that panics — once while the V row holds spectra after releasing
// some and once while W ⟷ X partials are parked after some were added (the U
// row unpaired, so that every partial is W ⟷ X's),
// then runs the same engine again: the next run re-arms the V row's use
// counts and spectra and the W ⟷ X inbox and buffers, and its state is a fresh
// engine's, bit for bit. (TestULIFailedRowReclaims stops the U row.)
func TestStoppedRunRecovers(t *testing.T) {
	tr := octree.Build(geom.Generate(geom.Ellipsoid, 3000, 45), 20, 20)
	tr.BuildLists(nil)
	ops := NewOperators(kernel.Laplace{}, 4, 1e-9)
	den := randDensities(rand.New(rand.NewSource(4)), len(tr.Points), 1)
	mk := func() *Engine {
		e := NewEngine(ops, tr)
		e.UseFFTM2L = true
		copy(e.Density, den)
		return e
	}
	want := mk()
	if _, err := want.Run(context.Background(), nil, nil); err != nil {
		t.Fatal(err)
	}
	for _, stop := range []struct {
		route string
		hook  *func(int)
	}{{"V spectra", &specHeld}, {"W ⟷ X partials", &parkedHeld}} {
		for _, how := range []string{"cancel", "panic"} {
			label := stop.route + "/" + how
			e := mk()
			unpairU(e)
			ctx, cancel := context.WithCancel(context.Background())
			live, released, stopped := 0, 0, 0
			*stop.hook = func(delta int) { // one worker: no concurrent calls
				live += delta
				if delta < 0 {
					released++
				}
				// Past a few releases, so that some use counts are spent in
				// part, with some still held.
				if released >= 5 && live > 0 && stopped == 0 {
					stopped = live
					if how == "panic" {
						panic("stop the run")
					}
					cancel()
					// The scheduler learns of the cancellation on a goroutine
					// of its own; give it the time to land.
					time.Sleep(100 * time.Millisecond)
				}
			}
			_, err := e.Run(ctx, nil, nil)
			*stop.hook = nil
			cancel()
			if err == nil || (how == "cancel" && !errors.Is(err, context.Canceled)) ||
				(how == "panic" && !strings.Contains(err.Error(), "stop the run")) {
				t.Fatalf("%s: the stopped run returned %v", label, err)
			}
			if stopped == 0 {
				t.Fatalf("%s: the run never held one after 5 releases", label)
			}
			e.Reset()
			held := 0
			specHeld = func(delta int) { held += delta }
			_, err = e.Run(context.Background(), nil, nil)
			specHeld = nil
			if err != nil {
				t.Fatal(err)
			}
			sameState(t, label+": the run after a stopped one", e, want)
			free := 0
			for _, f := range e.store.free {
				free += len(f)
			}
			if held != 0 || free != len(e.store.bufs) {
				t.Errorf("%s: after a full run %d spectra held, %d of %d buffers free", label, held, free, len(e.store.bufs))
			}
		}
	}
}

// TestScheduleMemoryCounted checks that a pool's share of the memory
// estimate, which the plan cache's byte budget reads, counts the compiled
// graph and nothing it shares: compiling grows it by the schedule's size, at
// least one task ref and one predecessor count per task and the pairing's
// arrays, but not the translation spectra of the V row's tables, which are
// the operators' own level tables, shared by every plan of the operators.
func TestScheduleMemoryCounted(t *testing.T) {
	tr := octree.Build(geom.Generate(geom.Ellipsoid, 3000, 7), 25, 20)
	tr.BuildLists(nil)
	spec := EngineSpec{Ops: NewOperators(kernel.Laplace{}, 4, 1e-9), Workers: 1}
	pool := spec.NewPool(tr, 0)
	before := pool.MemoryBytes()
	pool.Compile(false)
	grown := pool.MemoryBytes() - before
	s := pool.graphs.byRange[[2]int{0, numRows}]
	pr := s.pairs
	floor := int64(s.graph.Len())*(8+4) + 4*int64(len(pr.at)+len(pr.link)+len(pr.order))
	if len(s.vTab) == 0 {
		t.Fatal("the schedule has no V groups")
	}
	for k, tb := range s.vTab {
		if own := spec.Ops.table(tr.Nodes[s.vGroups[k][0]].Key.Level(), 1).v.Load(); tb != own {
			t.Fatalf("V group %d reads a table that is not its level table's", k)
		}
	}
	spectra := int64(0)
	for _, sp := range s.vTab[0] {
		spectra += 8 * int64(len(sp))
	}
	t.Logf("%d tasks: the estimate grew %d bytes, floor %d; %d of spectra not counted", s.graph.Len(), grown, floor, spectra)
	if grown != s.memoryBytes() || grown < floor || grown >= floor+spectra {
		t.Errorf("compiling %d tasks grew the estimate %d bytes; the schedule holds %d, at least %d and less than %d + %d of spectra",
			s.graph.Len(), grown, s.memoryBytes(), floor, floor, spectra)
	}
}

// TestCompileResolvesSpectraOnce checks that a level table holds its V-list
// spectra: only the first compile against an Operators looks them up in the
// process-wide cache, 316 directions a level. A second pool over a
// different tree looks up none, and a Yukawa run of re-planned trees (a
// session's steps, each moving 1 % of the points) resolves each level it
// translates at once.
func TestCompileResolvesSpectraOnce(t *testing.T) {
	lookups := func() int64 { st := SharedTranslations.Stats(); return st.Hits + st.Misses }
	// compile compiles a pool over pts and adds the levels of its V groups.
	compile := func(ops *Operators, pts []geom.Point, levels map[int]bool) {
		tr := octree.Build(pts, 25, 20)
		tr.BuildLists(nil)
		pool := EngineSpec{Ops: ops, Workers: 2}.NewPool(tr, 0)
		pool.Compile(false)
		for _, g := range pool.graphs.byRange[[2]int{0, numRows}].vGroups {
			levels[tr.Nodes[g[0]].Key.Level()] = true
		}
	}

	ops := NewOperators(kernel.Laplace{}, 4, 1e-9)
	l0 := lookups()
	compile(ops, geom.Generate(geom.Ellipsoid, 3000, 7), map[int]bool{})
	l1 := lookups()
	compile(ops, geom.Generate(geom.Uniform, 3000, 8), map[int]bool{})
	if first, second := l1-l0, lookups()-l1; first != 316 || second != 0 {
		t.Fatalf("the first compile made %d spectrum lookups and the second %d, want 316 and 0", first, second)
	}

	yops := NewOperators(kernel.Yukawa{Lambda: 5}, 4, 1e-9)
	pts := geom.Generate(geom.Ellipsoid, 3000, 9)
	rng := rand.New(rand.NewSource(1))
	levels := map[int]bool{}
	y0 := lookups()
	for step := 0; step < 4; step++ {
		compile(yops, pts, levels)
		for k := 0; k < len(pts)/100; k++ {
			p := &pts[rng.Intn(len(pts))]
			p.X = min(max(p.X+0.01*(rng.Float64()-0.5), 0), 0.999)
		}
	}
	if got, want := lookups()-y0, 316*int64(len(levels)); got != want || len(levels) < 2 {
		t.Fatalf("4 Yukawa compiles translating at %d levels made %d spectrum lookups, want %d", len(levels), got, want)
	}
}

// TestCompileTaskBound checks that compile lays a schedule's task table out
// once: for the whole table and for every row alone, in both V modes, the
// tasks added stay within taskBound, which sized the refs up front, and the
// graph holds one task per ref.
func TestCompileTaskBound(t *testing.T) {
	for _, fft := range []bool{false, true} {
		e := newTestEngine(t, kernel.Laplace{}, geom.Ellipsoid, 3000, 25, fft, 2)
		ranges := [][2]int{{0, numRows}}
		for pi := 0; pi < numRows; pi++ {
			ranges = append(ranges, [2]int{pi, pi + 1})
		}
		for _, r := range ranges {
			s := e.compile(r[0], r[1])
			var work [][][]int32
			for pi := r[0]; pi < r[1]; pi++ {
				w := e.work(&phases[pi])
				if pi == pULI {
					w = [][]int32{s.pairs.order}
				}
				work = append(work, w)
			}
			bound := e.taskBound(work, r[0])
			if len(s.refs) > bound || cap(s.refs) != bound || s.graph.Len() != len(s.refs) {
				t.Errorf("fft %v, rows %v: %d tasks, %d refs of capacity %d, bound %d",
					fft, r, s.graph.Len(), len(s.refs), cap(s.refs), bound)
			}
		}
	}
}
