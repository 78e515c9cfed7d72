package kifmm

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"os"
	"sort"
	"strings"
	"testing"

	"kifmm/internal/linalg"
)

// TestProbe is the house-rule potentials probe every deletion PR runs at its
// parent and at its change: one "name sha256" line per configuration, sorted,
// over the potentials of a 20k-point 1:1:4 ellipsoid at order 4 — every
// worker count, V-list translation, shard layout and entry point of the
// public API. Two trees that print the same file evaluate the same bits.
//
//	KIFMM_PROBE=probe.txt go test -run TestProbe -timeout 30m .   (make probe)
//
// Gated behind an env var: it is a fingerprint to diff, and a check of three
// things. Every configuration is evaluated twice in the process, and the two
// must hash alike: Go re-randomises map iteration order on every range, so a
// map-ordered effect anywhere on a configuration's path fails the probe.
// Every FFT apply configuration is evaluated once more with
// linalg.UseAVX512 off, and must hash alike too. And every apply
// configuration must hash alike at 1 and 2 workers. The session history ends
// with a round that refines the tree around a cluster of added points and one
// that removes them again; every session round must also hash like a fresh
// Plan.Apply of the session's points.
//
// Hashes cannot tell a 1e-10 reassociation from garbage, so a PR that changes
// an accumulation order on purpose also measures: KIFMM_PROBE_DUMP=<file>
// writes every configuration's potentials, in evaluation order, as raw
// little-endian float64, and KIFMM_PROBE_AGAINST=<file> logs (run with -v),
// per configuration, the relative L2 difference and the largest relative
// element difference against such a dump from the other tree.
func TestProbe(t *testing.T) {
	path := os.Getenv("KIFMM_PROBE")
	if path == "" {
		t.Skip("set KIFMM_PROBE=<file> to write the potentials probe")
	}
	const n, nTrg = 20000, 3000
	var lines []string
	var dump []byte
	dumpPath := os.Getenv("KIFMM_PROBE_DUMP")
	var against []byte
	if p := os.Getenv("KIFMM_PROBE_AGAINST"); p != "" {
		var err error
		if against, err = os.ReadFile(p); err != nil {
			t.Fatal(err)
		}
	}
	hash := func(pot []float64) (raw []byte, sum [sha256.Size]byte) {
		raw = make([]byte, 8*len(pot))
		for i, v := range pot {
			binary.LittleEndian.PutUint64(raw[8*i:], math.Float64bits(v))
		}
		return raw, sha256.Sum256(raw)
	}
	// record evaluates one configuration twice and writes one line per
	// output under names (a session history has one output per round).
	record := func(eval func() ([][]float64, error), names ...string) {
		t.Helper()
		first, err := eval()
		if err != nil {
			t.Fatalf("%s: %v", names[0], err)
		}
		again, err := eval()
		if err != nil {
			t.Fatalf("%s (second evaluation): %v", names[0], err)
		}
		for k, name := range names {
			pot := first[k]
			raw, sum := hash(pot)
			if _, sum2 := hash(again[k]); sum2 != sum {
				t.Errorf("%s: two evaluations in one process differ", name)
			}
			lines = append(lines, fmt.Sprintf("%s %x", name, sum))
			if dumpPath != "" {
				dump = append(dump, raw...)
			}
			if against != nil {
				if len(against) < len(raw) {
					t.Fatalf("%s: KIFMM_PROBE_AGAINST dump ends %d bytes short", name, len(raw)-len(against))
				}
				var num, den, worst float64
				for i, v := range pot {
					ref := math.Float64frombits(binary.LittleEndian.Uint64(against[8*i:]))
					d := math.Abs(v - ref)
					num += d * d
					den += ref * ref
					if d != 0 {
						worst = max(worst, d/max(math.Abs(v), math.Abs(ref)))
					}
				}
				against = against[len(raw):]
				t.Logf("against %s rel_l2=%.3e max_rel_elem=%.3e", name, math.Sqrt(num/den), worst)
			}
		}
	}
	one := func(eval func() ([]float64, error)) func() ([][]float64, error) {
		return func() ([][]float64, error) {
			pot, err := eval()
			return [][]float64{pot}, err
		}
	}
	planApply := func(opt Options, pts []Point, den []float64) ([]float64, error) {
		f, err := New(opt)
		if err != nil {
			return nil, err
		}
		p, err := f.Plan(pts)
		if err != nil {
			return nil, err
		}
		return p.Apply(den)
	}
	trgs, _ := randInput(nTrg, 1, 17)

	for _, kern := range []KernelName{Laplace, Stokes, Yukawa} {
		base := Options{Kernel: kern, Order: 4, Workers: 2}
		f, err := New(base)
		if err != nil {
			t.Fatal(err)
		}
		pts, den := ellipsoidInput(n, f.DensityDim(), 7)

		for _, workers := range []int{1, 2} {
			for _, dense := range []bool{false, true} {
				opt := base
				opt.Workers, opt.denseM2L = workers, dense
				name := fmt.Sprintf("%s/apply/workers%d/dense=%v", kern, workers, dense)
				record(one(func() ([]float64, error) { return planApply(opt, pts, den) }), name)
				if dense {
					continue
				}
				// The FFT V-list once more with the AVX-512 Hadamard body off:
				// the AVX2 body (or, without it, the Go loop) must give the
				// same bits, so every body has an end-to-end witness.
				avx512 := linalg.UseAVX512
				linalg.UseAVX512 = false
				pot, err := planApply(opt, pts, den)
				linalg.UseAVX512 = avx512
				if err != nil {
					t.Fatalf("%s (AVX-512 off): %v", name, err)
				}
				if _, sum := hash(pot); fmt.Sprintf("%s %x", name, sum) != lines[len(lines)-1] {
					t.Errorf("%s: hashes differently with the AVX-512 Hadamard body off", name)
				}
			}
		}
		for _, ranks := range []int{2, 3, 4} {
			opt := base
			opt.Shards = ranks
			record(one(func() ([]float64, error) { return planApply(opt, pts, den) }),
				fmt.Sprintf("%s/shards%d", kern, ranks))
		}
		record(one(func() ([]float64, error) {
			p, err := f.PlanAt(context.Background(), trgs, pts)
			if err != nil {
				return nil, err
			}
			return p.Apply(den)
		}), fmt.Sprintf("%s/targets", kern))

		session := func() ([][]float64, error) {
			s, err := f.NewSession(context.Background(), pts)
			if err != nil {
				return nil, err
			}
			rng := rand.New(rand.NewSource(27))
			var pots [][]float64
			// step applies d and records the potentials for fresh densities,
			// which must hash like a fresh plan's of the same points.
			step := func(d Delta) (StepInfo, error) {
				info, err := s.Step(context.Background(), d)
				if err != nil {
					return info, err
				}
				sden := make([]float64, s.NumPoints()*f.DensityDim())
				for i := range sden {
					sden[i] = rng.NormFloat64()
				}
				pot, err := s.Apply(context.Background(), sden)
				if err != nil {
					return info, err
				}
				p, err := f.Plan(s.Points())
				if err != nil {
					return info, err
				}
				fresh, err := p.Apply(sden)
				if err != nil {
					return info, err
				}
				_, got := hash(pot)
				if _, want := hash(fresh); got != want {
					t.Errorf("%s/session: round %d hashes unlike a fresh plan of its points", kern, len(pots))
				}
				pots = append(pots, pot)
				return info, nil
			}
			for round := 0; round < 3; round++ {
				var d Delta
				ids := s.IDs()
				for _, id := range ids[:len(ids)/20] {
					d.Move = append(d.Move, PointMove{ID: id, To: Point{X: rng.Float64(), Y: rng.Float64(), Z: rng.Float64()}})
				}
				for i := 0; i < 20; i++ {
					d.Add = append(d.Add, Point{X: rng.Float64(), Y: rng.Float64(), Z: rng.Float64()})
				}
				d.Remove = ids[len(ids)-10:]
				if _, err := step(d); err != nil {
					return nil, err
				}
			}
			// Four leaves' worth of points in one small cube refine the tree
			// there (split), and removing them coarsens it again (merge).
			var cluster Delta
			for i := 0; i < 200; i++ {
				cluster.Add = append(cluster.Add, Point{X: 0.3 + 0.01*rng.Float64(), Y: 0.3 + 0.01*rng.Float64(), Z: 0.3 + 0.01*rng.Float64()})
			}
			info, err := step(cluster)
			if err != nil {
				return nil, err
			}
			if _, err = step(Delta{Remove: info.AddedIDs}); err != nil {
				return nil, err
			}
			return pots, nil
		}
		record(session,
			fmt.Sprintf("%s/session/round0", kern), fmt.Sprintf("%s/session/round1", kern),
			fmt.Sprintf("%s/session/round2", kern), fmt.Sprintf("%s/session/split", kern),
			fmt.Sprintf("%s/session/merge", kern))

		for run := 0; run < 2; run++ {
			record(one(func() ([]float64, error) { return f.EvaluateDistributed(4, pts, den) }),
				fmt.Sprintf("%s/distributed4/run%d", kern, run))
		}
	}

	// The results are bit-identical at any worker count (Options.Workers):
	// a regenerated file must not be able to hide a break of that.
	sums := make(map[string]string, len(lines))
	for _, line := range lines {
		name, sum, _ := strings.Cut(line, " ")
		sums[name] = sum
	}
	for _, line := range lines {
		name, sum, _ := strings.Cut(line, " ")
		if w2 := strings.Replace(name, "/workers1/", "/workers2/", 1); w2 != name && sums[w2] != sum {
			t.Errorf("%s and %s hash differently", name, w2)
		}
	}
	if against != nil && len(against) != 0 {
		t.Fatalf("KIFMM_PROBE_AGAINST dump has %d bytes left over: not a dump of this probe", len(against))
	}
	if dumpPath != "" {
		if err := os.WriteFile(dumpPath, dump, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	sort.Strings(lines)
	if err := os.WriteFile(path, []byte(strings.Join(lines, "\n")+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
}
