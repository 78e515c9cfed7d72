package kernel

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// panelSpecials are the values a rounding, guard or lane mix-up shows on
// first: NaN, both infinities, both zeros, the denormal range and the
// overflow edge.
var panelSpecials = []float64{
	math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1), 0,
	math.SmallestNonzeroFloat64, 0x1p-537, -0x1p-1030, math.MaxFloat64, -0x1p600, 1,
}

// panelGoLoops are the kernels with a vector EvalPanel, each beside the Go
// loop that is its tail, its portable path and here its oracle.
var panelGoLoops = []struct {
	kern Batch
	loop func(tx, ty, tz, sx, sy, sz, den, out []float64, start int)
}{
	{Laplace{}, laplacePanelGo},
	{Stokes{}, stokesPanelGo},
}

// panelCase is one FuzzEvalPanel input, decoded.
type panelCase struct {
	kern       int   // index into panelGoLoops
	nt, ns     int   // panel lengths
	offT, offS uint8 // two bits each: element offsets of tx, ty, tz, out / sx, sy, sz, den into their backing arrays
	selfOffset int   // the hint, passed through
	planted    int   // coincident pairs planted; with the self flag the target panel is also the source panel
	self       bool
	seed       int64 // odd: one value in eight is drawn from panelSpecials
}

// panelsAgree runs EvalPanel (vector body + Go tail) and the Go loop alone on
// identical panels and reports the first output element whose bits differ (a
// NaN matches any NaN: x86 picks the payload by operand order). The whole
// backing array of out is compared, and checked against its initial fill
// outside the panel, so a store past nt·TrgDim (or before out[0]) shows too.
func panelsAgree(c panelCase) error {
	k := panelGoLoops[c.kern]
	sd, td := k.kern.SrcDim(), k.kern.TrgDim()
	rng := rand.New(rand.NewSource(c.seed))
	special := c.seed&1 == 1
	// backing returns off+n+4 drawn values: a panel that starts off elements
	// in has its first element at any multiple of 8 modulo 32, and four guard
	// elements behind it.
	backing := func(n, off int, draw func() float64) []float64 {
		b := make([]float64, off+n+4)
		for i := range b {
			b[i] = draw()
			if special && rng.Intn(8) == 0 {
				b[i] = panelSpecials[rng.Intn(len(panelSpecials))]
			}
		}
		return b
	}
	panel := func(n int, offs uint8, i int, draw func() float64) []float64 {
		off := int(offs>>(2*i)) & 3
		return backing(n, off, draw)[off : off+n : off+n]
	}
	tx := panel(c.nt, c.offT, 0, rng.Float64)
	ty := panel(c.nt, c.offT, 1, rng.Float64)
	tz := panel(c.nt, c.offT, 2, rng.Float64)
	sx, sy, sz := tx, ty, tz
	if !c.self {
		sx = panel(c.ns, c.offS, 0, rng.Float64)
		sy = panel(c.ns, c.offS, 1, rng.Float64)
		sz = panel(c.ns, c.offS, 2, rng.Float64)
		for p := 0; p < c.planted && c.nt > 0 && c.ns > 0; p++ {
			i, j := rng.Intn(c.nt), rng.Intn(c.ns)
			sx[j], sy[j], sz[j] = tx[i], ty[i], tz[i]
		}
	}
	den := panel(len(sx)*sd, c.offS, 3, rng.NormFloat64)
	lo := int(c.offT>>6) & 3
	hi := lo + c.nt*td
	fill := backing(c.nt*td, lo, rng.NormFloat64)
	got, want := slices.Clone(fill), slices.Clone(fill)

	k.kern.EvalPanel(tx, ty, tz, sx, sy, sz, den, got[lo:hi:hi], c.selfOffset)
	k.loop(tx, ty, tz, sx, sy, sz, den, want[lo:hi:hi], 0)

	same := func(a, b float64) bool {
		return math.Float64bits(a) == math.Float64bits(b) || (math.IsNaN(a) && math.IsNaN(b))
	}
	for i := range got {
		if (i < lo || i >= hi) && !same(got[i], fill[i]) {
			return fmt.Errorf("%s %+v: wrote %v outside the panel, at out[%d]", k.kern.Name(), c, got[i], i-lo)
		}
		if !same(got[i], want[i]) {
			return fmt.Errorf("%s %+v: out[%d] = %v (%#x), Go loop %v (%#x)",
				k.kern.Name(), c, i-lo, got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
	return nil
}

// FuzzEvalPanel searches kernel × panel lengths × misalignments × selfOffset ×
// planted coincident pairs × values for a panel on which the vector EvalPanel
// and the Go loop disagree in one bit, or on which EvalPanel writes outside
// out[:nt·TrgDim]. The seeds are the shapes of TestEvalPanelMatchesEval
// (lengths up to 40, five planted pairs, the four selfOffset hints) and
// TestEvalPanelSelfPanel (a 33-point panel against itself), every tail length
// around the four-lane body, and the empty panels; plain `go test` runs them
// (on a build or CPU without the vector kernel both sides are the Go loop and
// they pass trivially), `make fuzz` searches on for 10 s.
func FuzzEvalPanel(f *testing.F) {
	seed := int64(0)
	for kern := uint8(0); kern < 2; kern++ {
		for _, nt := range []uint8{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 12, 33, 40, 64, 67} {
			for _, ns := range []uint8{0, 1, 2, 3, 4, 5, 17, 40, 67} {
				for _, selfOffset := range []int8{-1, 0, 3, 47} {
					seed++
					off := uint8(seed * 37)
					f.Add(kern, nt, ns, off, off^0x5a, selfOffset, uint8(5), seed)
				}
			}
			f.Add(kern, nt, nt, uint8(nt), uint8(3*nt), int8(0), uint8(0x80), int64(nt))
			f.Add(kern, nt, nt, uint8(5*nt), uint8(nt), int8(-1), uint8(0x80), int64(nt)+1)
		}
	}
	f.Fuzz(func(t *testing.T, kern, nt, ns, offT, offS uint8, selfOffset int8, planted uint8, seed int64) {
		// Kernel by parity, lengths 0…67, the top bit of planted selecting
		// the self panel.
		c := panelCase{
			kern: int(kern) % len(panelGoLoops), nt: int(nt) % 68, ns: int(ns) % 68,
			offT: offT, offS: offS, selfOffset: int(selfOffset),
			planted: int(planted & 7), self: planted&0x80 != 0, seed: seed,
		}
		if err := panelsAgree(c); err != nil {
			t.Fatal(err)
		}
	})
}

// nfClass is what TestEvalPanelNonFinite expects of one target's potential.
type nfClass int

const (
	nfRef  nfClass = iota // bit-identical to the row's clean run: the poison contributed nothing
	nfZero                // every component exactly 0
	nfNaN                 // every component NaN
	nfPosInf
	nfNegInf
)

// holds reports whether got is of class c, ref being the clean run's value.
func (c nfClass) holds(got, ref float64) bool {
	switch c {
	case nfRef:
		return math.Float64bits(got) == math.Float64bits(ref)
	case nfZero:
		return got == 0
	case nfNaN:
		return math.IsNaN(got)
	case nfPosInf:
		return math.IsInf(got, 1)
	default:
		return math.IsInf(got, -1)
	}
}

// nfPanel is TestEvalPanelNonFinite's panel: five targets (four for the
// vector body, one for the Go tail) and six sources on the cube's diagonal,
// every source beyond every target, so the sign of each infinite term below
// is fixed by construction.
type nfPanel struct {
	tx, ty, tz, sx, sy, sz, den []float64
}

func newNFPanel(sd int) *nfPanel {
	p := &nfPanel{}
	for i := 0; i < 5; i++ {
		c := 0.1 + 0.05*float64(i)
		p.tx, p.ty, p.tz = append(p.tx, c), append(p.ty, c), append(p.tz, c)
	}
	for j := 0; j < 6; j++ {
		c := 0.6 + 0.05*float64(j)
		p.sx, p.sy, p.sz = append(p.sx, c), append(p.sy, c), append(p.sz, c)
		for d := 0; d < sd; d++ {
			p.den = append(p.den, 1+0.25*float64(j)-0.5*float64(d))
		}
	}
	return p
}

// TestEvalPanelNonFinite pins what EvalPanel returns for input the library's
// callers are supposed to have refused — a NaN or ±Inf coordinate or density —
// and for an all-coincident panel, identically under the vector kernels and
// -tags purego (ROADMAP 1(d)). The Algorithm 4 guard maps a non-finite
// *kernel value* to 0, silently: a Laplace or Yukawa target at NaN or ±Inf
// reads potential 0 and a source there contributes nothing. It does not
// contain a non-finite *operand*: the Stokeslet's dx·dot term and every
// kernel's k·density carry NaN/Inf to the output. A kernel rewrite that moves
// any row moves this table.
func TestEvalPanelNonFinite(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	const src = 2 // the poisoned source
	rows := []struct {
		name   string
		poison func(p *nfPanel, sd int)
		// clean prepares the reference run nfRef compares against (nil: the
		// untouched panel).
		clean func(p *nfPanel, sd int)
		// hit lists the targets that get hitWant; the rest get restWant.
		// Indexed laplace, stokes, yukawa.
		hit               []int
		hitWant, restWant [3]nfClass
	}{
		{name: "target coordinate NaN", hit: []int{1, 4},
			poison:  func(p *nfPanel, _ int) { p.tx[1], p.tz[4] = nan, nan },
			hitWant: [3]nfClass{nfZero, nfNaN, nfZero}},
		{name: "target coordinate +Inf", hit: []int{1, 4},
			poison:  func(p *nfPanel, _ int) { p.tx[1], p.tz[4] = inf, inf },
			hitWant: [3]nfClass{nfZero, nfNaN, nfZero}},
		{name: "target coordinate -Inf", hit: []int{1, 4},
			poison:  func(p *nfPanel, _ int) { p.tx[1], p.tz[4] = -inf, -inf },
			hitWant: [3]nfClass{nfZero, nfNaN, nfZero}},
		{name: "source coordinate NaN",
			poison:   func(p *nfPanel, _ int) { p.sy[src] = nan },
			clean:    func(p *nfPanel, sd int) { clear(p.den[src*sd : (src+1)*sd]) },
			restWant: [3]nfClass{nfRef, nfNaN, nfRef}},
		{name: "source coordinate +Inf",
			poison:   func(p *nfPanel, _ int) { p.sy[src] = inf },
			clean:    func(p *nfPanel, sd int) { clear(p.den[src*sd : (src+1)*sd]) },
			restWant: [3]nfClass{nfRef, nfNaN, nfRef}},
		{name: "density NaN",
			poison:   func(p *nfPanel, sd int) { p.den[src*sd] = nan },
			restWant: [3]nfClass{nfNaN, nfNaN, nfNaN}},
		{name: "density +Inf",
			poison:   func(p *nfPanel, sd int) { p.den[src*sd] = inf },
			restWant: [3]nfClass{nfPosInf, nfPosInf, nfPosInf}},
		{name: "density -Inf",
			poison:   func(p *nfPanel, sd int) { p.den[src*sd] = -inf },
			restWant: [3]nfClass{nfNegInf, nfNegInf, nfNegInf}},
		// The guard's 0 times an infinite density is NaN: only at the target
		// the source coincides with.
		{name: "density +Inf on a source coincident with target 0", hit: []int{0},
			poison: func(p *nfPanel, sd int) {
				p.sx[src], p.sy[src], p.sz[src] = p.tx[0], p.ty[0], p.tz[0]
				p.den[src*sd] = inf
			},
			hitWant: [3]nfClass{nfNaN, nfNaN, nfNaN}, restWant: [3]nfClass{nfPosInf, nfPosInf, nfPosInf}},
		{name: "all points coincident",
			poison: func(p *nfPanel, _ int) {
				for _, c := range [][]float64{p.tx, p.ty, p.tz, p.sx, p.sy, p.sz} {
					for i := range c {
						c[i] = 0.3
					}
				}
			},
			restWant: [3]nfClass{nfZero, nfZero, nfZero}},
	}
	for ki, k := range batchKernels() {
		b := AsBatch(k)
		sd, td := k.SrcDim(), k.TrgDim()
		eval := func(prep func(p *nfPanel, sd int)) []float64 {
			p := newNFPanel(sd)
			if prep != nil {
				prep(p, sd)
			}
			out := make([]float64, len(p.tx)*td)
			b.EvalPanel(p.tx, p.ty, p.tz, p.sx, p.sy, p.sz, p.den, out, -1)
			return out
		}
		for _, row := range rows {
			got, ref := eval(row.poison), eval(row.clean)
			for i := range got {
				want := row.restWant[ki]
				if slices.Contains(row.hit, i/td) {
					want = row.hitWant[ki]
				}
				if !want.holds(got[i], ref[i]) {
					t.Errorf("%s, %s: target %d component %d = %v (clean run %v), want class %d",
						k.Name(), row.name, i/td, i%td, got[i], ref[i], want)
				}
			}
		}
	}
}

// BenchmarkNearFieldPanel is the micro-row under `make bench-nearfield`: ns
// per source-target pair of one warm EvalPanel call, on a 400×400 panel (the
// divider-bound steady state) and on a 50×152 one (a q=50 leaf against an
// order-6 equivalent surface, where the per-call and tail costs show). The
// pair regime times ns per directed pair (2·na·nb of them) two ways on two
// disjoint panels, at 400×400 and 50×50 (a q=400 and a q=50 leaf pair): one
// EvalPair call (pair) and the two EvalPanel calls it replaces (twopanel).
func BenchmarkNearFieldPanel(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	density := func(n int) []float64 {
		den := make([]float64, n)
		for i := range den {
			den[i] = rng.NormFloat64()
		}
		return den
	}
	for _, k := range batchKernels() {
		bk := AsBatch(k)
		sd, td := k.SrcDim(), k.TrgDim()
		for _, shape := range [][2]int{{400, 400}, {50, 152}} {
			nt, ns := shape[0], shape[1]
			tx, ty, tz := randPanel(rng, nt)
			sx, sy, sz := randPanel(rng, ns)
			den := density(ns * sd)
			out := make([]float64, nt*td)
			b.Run(fmt.Sprintf("%s/%dx%d", k.Name(), nt, ns), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					bk.EvalPanel(tx, ty, tz, sx, sy, sz, den, out, -1)
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*nt*ns), "ns/pair")
			})
		}
		for _, n := range []int{400, 50} {
			ax, ay, az := randPanel(rng, n)
			bx, by, bz := randPanel(rng, n)
			aden, bden := density(n*sd), density(n*sd)
			aout, bout := make([]float64, n*td), make([]float64, n*td)
			perPair := func(b *testing.B) {
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(2*b.N*n*n), "ns/pair")
			}
			b.Run(fmt.Sprintf("%s/pair/%dx%d", k.Name(), n, n), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					bk.EvalPair(ax, ay, az, bx, by, bz, aden, bden, aout, bout)
				}
				perPair(b)
			})
			b.Run(fmt.Sprintf("%s/twopanel/%dx%d", k.Name(), n, n), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					bk.EvalPanel(ax, ay, az, bx, by, bz, bden, aout, -1)
					clear(bout)
					bk.EvalPanel(bx, by, bz, ax, ay, az, aden, bout, -1)
				}
				perPair(b)
			})
		}
	}
}
