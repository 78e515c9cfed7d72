package kifmm

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// hadamardSpecials are the values a rounding or lane mix-up shows on first:
// NaN, both infinities, both zeros, the denormal range and the overflow edge.
var hadamardSpecials = []float64{
	math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1), 0,
	math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, 0x1p-1040, -0x1p-1030,
	math.MaxFloat64, -math.MaxFloat64, 0x1p-537, 1,
}

// hadamardScalarRef is the straightforward scalar reference of one list
// triple over elements [c0, c1), with the identical per-element expression:
// (ar,ai) += (tr,ti)·(sr,si), the im panels at +hl.
func hadamardScalarRef(op hadamardOp, c0, c1, hl int) {
	for i := c0; i < c1; i++ {
		tr, ti, sr, si := op.t[i], op.t[hl+i], op.s[i], op.s[hl+i]
		op.a[i] += tr*sr - ti*si
		op.a[hl+i] += tr*si + ti*sr
	}
}

// hadamardListBodies is every list body of this build, each with whether
// the CPU runs it: the vector bodies widest first, then the Go loop alone
// (a body that covers no element).
func hadamardListBodies() []hadamardBody {
	return append(slices.Clone(hadamardVecBodies),
		hadamardBody{"go", true, func([]hadamardOp, int, int, int) int { return 0 }})
}

// runHadamardBody runs body directly over [c0, c1), not through dispatch,
// and the Go loop over the tail it leaves.
func runHadamardBody(body hadamardBody, ops []hadamardOp, c0, c1, hl int) {
	hadamardListGo(ops, c0+body.run(ops, c0, c1, hl), c1, hl)
}

// hadamardListCase is one list of triples over panel pools: trip[k] names
// the accumulator (out of nAcc) and the translation and source (both out of
// one pool of nOpd, so a triple may multiply a panel by itself) of op k.
// Panel k of a pool starts (off+k) mod 4 elements into its backing array,
// an operand one element further than the accumulator of the same index.
type hadamardListCase struct {
	hl, c0, c1  int
	nAcc, nOpd  int
	trip        [][3]int
	off         int
	seed        int64
	special     bool
	description string
}

// agree runs body over the case and the scalar reference triple by triple,
// and reports the first element of any accumulator's backing array whose
// bits differ (a NaN matches any NaN: x86 picks the payload by operand
// order). The whole backing arrays are compared, so a store outside
// [c0, c1) of either panel shows too. One value in four is drawn from
// hadamardSpecials when special is set.
func (c hadamardListCase) agree(body hadamardBody) error {
	rng := rand.New(rand.NewSource(c.seed))
	pool := func(n, shift int) (backs, panels [][]float64) {
		for k := range n {
			off := (c.off + shift + k) % 4
			b := make([]float64, off+2*c.hl+4)
			for i := range b {
				b[i] = rng.NormFloat64()
				if c.special && rng.Intn(4) == 0 {
					b[i] = hadamardSpecials[rng.Intn(len(hadamardSpecials))]
				}
			}
			backs, panels = append(backs, b), append(panels, b[off:off+2*c.hl])
		}
		return backs, panels
	}
	accBacks, accs := pool(c.nAcc, 0)
	_, opds := pool(c.nOpd, 1)
	refBacks := make([][]float64, c.nAcc)
	refs := make([][]float64, c.nAcc)
	for k, b := range accBacks {
		refBacks[k] = slices.Clone(b)
		off := len(b) - 2*c.hl - 4
		refs[k] = refBacks[k][off : off+2*c.hl]
	}
	ops := make([]hadamardOp, len(c.trip))
	for k, tr := range c.trip {
		ops[k] = hadamardOp{accs[tr[0]], opds[tr[1]], opds[tr[2]]}
		hadamardScalarRef(hadamardOp{refs[tr[0]], opds[tr[1]], opds[tr[2]]}, c.c0, c.c1, c.hl)
	}
	runHadamardBody(body, ops, c.c0, c.c1, c.hl)
	for k := range accBacks {
		for i, g := range accBacks[k] {
			w := refBacks[k][i]
			if math.Float64bits(g) != math.Float64bits(w) && !(math.IsNaN(g) && math.IsNaN(w)) {
				return fmt.Errorf("%s body, %s, hl=%d [%d,%d) seed=%d special=%v: acc %d backing[%d] = %v (%#x), scalar reference %v (%#x)",
					body.name, c.description, c.hl, c.c0, c.c1, c.seed, c.special, k, i, g, math.Float64bits(g), w, math.Float64bits(w))
			}
		}
	}
	return nil
}

// randomTriples draws n triples over nAcc accumulators and nOpd operands.
func randomTriples(rng *rand.Rand, n, nAcc, nOpd int) [][3]int {
	trip := make([][3]int, n)
	for k := range trip {
		trip[k] = [3]int{rng.Intn(nAcc), rng.Intn(nOpd), rng.Intn(nOpd)}
	}
	return trip
}

// interiorRun is the list of one parent-direction run between two full
// sibling groups, as vliFFTGroup builds it: 64 (target octant, translation,
// source octant) triples in vOrder — source octant, then target octant —
// with the translation numbered by the octants' offset, one of 27.
func interiorRun() [][3]int {
	var trip [][3]int
	for so := range 8 {
		for to := range 8 {
			d := 0
			for bit := 2; bit >= 0; bit-- {
				d = 3*d + (to>>bit&1 - so>>bit&1 + 1)
			}
			trip = append(trip, [3]int{to, d, so})
		}
	}
	return trip
}

// hadamardListCases is the table of TestHadamardKernelsAgree: the half
// spectrum lengths of orders 2–7, chunk bounds at 0, mid-spectrum and hl
// (and an unaligned chunk that leaves every body a tail), and three list
// shapes: a Laplace parent-direction run (the interior 8×8 pattern: eight
// sources into eight accumulators, each accumulator hit by every eighth
// triple), a random list whose triples repeat a few accumulators
// and share sources, and a single triple.
func hadamardListCases() []hadamardListCase {
	interior := interiorRun()
	for k := range interior {
		interior[k][1] += 8 // translations follow the eight sources in the pool
	}
	rng := rand.New(rand.NewSource(34))
	var cases []hadamardListCase
	for _, hl := range []int{48, 144, 320, 600, 1008, 1568} {
		mid := hl / 2
		bounds := [][2]int{{0, hl}, {0, mid}, {mid, hl}, {0, 0}, {hl, hl}, {mid + 1, min(mid+1+hadamardChunk+5, hl)}}
		for _, b := range bounds {
			for _, special := range []bool{false, true} {
				seed := int64(len(cases))
				cases = append(cases,
					hadamardListCase{hl, b[0], b[1], 8, 8 + 27, interior, int(seed % 4), seed, special, "interior 8×8 run"},
					hadamardListCase{hl, b[0], b[1], 3, 5, randomTriples(rng, 40, 3, 5), int(seed % 4), seed, special, "repeated accumulators"},
					hadamardListCase{hl, b[0], b[1], 1, 2, [][3]int{{0, 0, 1}}, int(seed % 4), seed, special, "one triple"},
				)
			}
		}
	}
	return cases
}

// TestHadamardKernelsAgree: every list body — the AVX-512 body, the AVX2
// body and the Go loop, each called directly so that a host with AVX-512
// still runs the AVX2 body — equals the scalar reference applied triple by
// triple, bit for bit, on ordinary and on special values.
func TestHadamardKernelsAgree(t *testing.T) {
	cases := hadamardListCases()
	for _, body := range hadamardListBodies() {
		t.Run(body.name, func(t *testing.T) {
			if !body.ok {
				t.Skipf("this CPU lacks the %s body", body.name)
			}
			for _, c := range cases {
				if err := c.agree(body); err != nil {
					t.Fatal(err)
				}
			}
		})
	}
}

// TestHadamardMatchesScalarReference: Hadamard — one interaction's list,
// dispatched and chunked — is the scalar reference applied to its
// component pairs in (t, s) order, bit for bit, for scalar and 3×3 kernels
// and for panel lengths that are and are not whole chunks and whole vector
// iterations.
func TestHadamardMatchesScalarReference(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	cases := []struct{ sd, td, hl int }{
		{1, 1, 1008}, {1, 1, 7}, {3, 3, 100}, {3, 3, 33}, {1, 3, 50}, {3, 3, 600}, {1, 1, 1568},
	}
	for _, c := range cases {
		acc := make([]float64, c.td*2*c.hl)
		tf := make([]float64, c.td*c.sd*2*c.hl)
		src := make([]float64, c.sd*2*c.hl)
		for _, x := range [][]float64{acc, tf, src} {
			for i := range x {
				x[i] = rng.NormFloat64()
			}
		}
		ref := slices.Clone(acc)
		Hadamard(acc, tf, src, c.sd, c.td, c.hl)
		for _, op := range appendHadamardOps(nil, ref, tf, src, c.sd, c.td, c.hl) {
			hadamardScalarRef(op, 0, c.hl, c.hl)
		}
		for i := range acc {
			if math.Float64bits(acc[i]) != math.Float64bits(ref[i]) {
				t.Fatalf("sd=%d td=%d hl=%d: list kernel differs from scalar reference at %d: %v vs %v",
					c.sd, c.td, c.hl, i, acc[i], ref[i])
			}
		}
	}
}

// hadamardPanelsAgree checks one triple of panel length n, each panel
// starting off elements into its backing array, through every body.
func hadamardPanelsAgree(n, off int, seed int64, special bool) error {
	for _, body := range hadamardListBodies() {
		if !body.ok {
			continue
		}
		c := hadamardListCase{n, 0, n, 1, 2, [][3]int{{0, 0, 1}}, off, seed, special, fmt.Sprintf("one triple, offset %d", off)}
		if err := c.agree(body); err != nil {
			return err
		}
	}
	return nil
}

// hadamardKernelCases is the (length, element offset) seed corpus of
// FuzzHadamardPanels: every tail length around the 4- and 8-lane bodies,
// the two production panel lengths (orders 6 and 5), and every misalignment
// of the first element.
func hadamardKernelCases() (cases [][2]int) {
	lengths := []int{1008, 600}
	for n := 0; n <= 70; n++ {
		lengths = append(lengths, n)
	}
	for _, n := range lengths {
		for off := 0; off < 4; off++ {
			cases = append(cases, [2]int{n, off})
		}
	}
	return cases
}

// FuzzHadamardPanels searches (length, offset, seed) for a one-triple list
// on which a body and the scalar reference disagree. `make fuzz` runs it
// for 10 s.
func FuzzHadamardPanels(f *testing.F) {
	for k, c := range hadamardKernelCases() {
		f.Add(uint16(c[0]), uint8(c[1]), int64(k))
	}
	f.Fuzz(func(t *testing.T, n uint16, off uint8, seed int64) {
		if err := hadamardPanelsAgree(int(n%2048), int(off%4), seed, seed&1 == 1); err != nil {
			t.Fatal(err)
		}
	})
}

// FuzzHadamardList searches for a triple list on which a body and the
// scalar reference disagree: nops triples drawn over a pool of one to four
// accumulators and two to seven operand panels (so accumulators repeat and
// sources are shared), a half spectrum of up to 1599 elements and any
// chunk [c0, c1) of it. `make fuzz` runs it for 10 s; its seed corpus is
// under testdata/fuzz/FuzzHadamardList.
func FuzzHadamardList(f *testing.F) {
	f.Add(int64(1), uint8(64), uint16(1008), uint16(0), uint16(64), false)
	f.Add(int64(2), uint8(9), uint16(600), uint16(576), uint16(24), true)
	f.Add(int64(3), uint8(1), uint16(7), uint16(0), uint16(7), true)
	f.Fuzz(func(t *testing.T, seed int64, nops uint8, hl, c0, width uint16, special bool) {
		rng := rand.New(rand.NewSource(seed))
		c := hadamardListCase{hl: int(hl % 1600), nAcc: 1 + rng.Intn(4), nOpd: 2 + rng.Intn(6), off: int(seed & 3), seed: seed, special: special, description: "fuzzed list"}
		c.c0 = int(c0) % (c.hl + 1)
		c.c1 = c.c0 + int(width)%(c.hl-c.c0+1)
		c.trip = randomTriples(rng, int(nops), c.nAcc, c.nOpd)
		for _, body := range hadamardListBodies() {
			if body.ok {
				if err := c.agree(body); err != nil {
					t.Fatal(err)
				}
			}
		}
	})
}
