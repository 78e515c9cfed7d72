package kifmm

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"os"
	"sort"
	"strings"
	"testing"
)

// TestProbe is the house-rule potentials probe every deletion PR runs at its
// parent and at its change: one "name sha256" line per configuration, sorted,
// over the potentials of a 20k-point 1:1:4 ellipsoid at order 4 — every
// worker count, V-list translation, shard layout and entry point of the
// public API. Two trees that print the same file evaluate the same bits.
//
//	KIFMM_PROBE=probe.txt go test -run TestProbe -timeout 30m .   (make probe)
//
// Gated behind an env var: it is a fingerprint to diff, not a check.
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
	record := func(name string, pot []float64, err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		raw := make([]byte, 8*len(pot))
		for i, v := range pot {
			binary.LittleEndian.PutUint64(raw[8*i:], math.Float64bits(v))
		}
		lines = append(lines, fmt.Sprintf("%s %x", name, sha256.Sum256(raw)))
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
				pot, err := planApply(opt, pts, den)
				record(fmt.Sprintf("%s/apply/workers%d/dense=%v", kern, workers, dense), pot, err)
			}
		}
		for _, sh := range []struct {
			ranks int
			comm  string
		}{{2, "hypercube"}, {4, "hypercube"}, {3, "simple"}} {
			opt := base
			opt.Shards, opt.ShardComm = sh.ranks, sh.comm
			pot, err := planApply(opt, pts, den)
			record(fmt.Sprintf("%s/shards%d/%s", kern, sh.ranks, sh.comm), pot, err)
		}
		p, err := f.PlanAt(trgs, pts)
		if err != nil {
			t.Fatal(err)
		}
		pot, err := p.Apply(den)
		record(fmt.Sprintf("%s/targets", kern), pot, err)
		pot, err = f.EvaluateAt(trgs, pts, den)
		record(fmt.Sprintf("%s/evaluateat", kern), pot, err)

		s, err := f.NewSession(pts)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(27))
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
			if _, err := s.Step(d); err != nil {
				t.Fatal(err)
			}
			sden := make([]float64, s.NumPoints()*f.DensityDim())
			for i := range sden {
				sden[i] = rng.NormFloat64()
			}
			pot, err := s.Apply(sden)
			record(fmt.Sprintf("%s/session/round%d", kern, round), pot, err)
		}

		for run := 0; run < 2; run++ {
			pot, err := f.EvaluateDistributed(4, pts, den)
			record(fmt.Sprintf("%s/distributed4/run%d", kern, run), pot, err)
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
