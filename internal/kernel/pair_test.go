package kernel

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// pairBody is one EvalPair body, called directly: the vector kernel with
// its Go tail, the Go loop alone, or the dispatching method. Every body
// receives a bpart that is not zero on entry and must assign it.
type pairBody struct {
	name string
	eval func(ax, ay, az, bx, by, bz, aden, bden, aout, bpart []float64)
}

// pairBodies lists the bodies of kernel k: the EvalPair method itself (for
// Yukawa its one Go body, for Stokes its two EvalPanel calls), and for
// Laplace the Go loop from a-target 0 and (where the CPU has it) the AVX2
// kernel over the leading multiple of four a-targets with the Go loop after
// it.
func pairBodies(k Kernel) []pairBody {
	var goLoop func(ax, ay, az, bx, by, bz, aden, bden, aout, bpart []float64, start int)
	var vec func(ax, ay, az, bx, by, bz, aden, bden, aout, bpart []float64) int
	bodies := []pairBody{{"method", AsBatch(k).EvalPair}}
	switch k.(type) {
	case Laplace:
		goLoop, vec = laplacePairGo, laplacePairVec
	default: // Stokes' and Yukawa's methods are their one body
		return bodies
	}
	bodies = append(bodies, pairBody{"go", func(ax, ay, az, bx, by, bz, aden, bden, aout, bpart []float64) {
		clear(bpart)
		goLoop(ax, ay, az, bx, by, bz, aden, bden, aout, bpart, 0)
	}})
	if UseAVX2 {
		bodies = append(bodies, pairBody{"avx2", func(ax, ay, az, bx, by, bz, aden, bden, aout, bpart []float64) {
			clear(bpart)
			goLoop(ax, ay, az, bx, by, bz, aden, bden, aout, bpart, vec(ax, ay, az, bx, by, bz, aden, bden, aout, bpart))
		}})
	}
	return bodies
}

// pairCase is one EvalPair input, decoded.
type pairCase struct {
	kern    int // index into batchKernels()
	na, nb  int
	planted int  // b points moved onto a points: coincident pairs across the panels
	scale   int  // both panels are scaled by 2^scale: r² overflows or underflows at the extremes
	special bool // one value in eight is drawn from panelSpecials (NaN, ±Inf, ±0, denormals, …)
	seed    int64
}

// pairAgree runs every EvalPair body of the case's kernel and the two
// EvalPanel calls that define it — EvalPanel(a ← b) into aout and
// EvalPanel(b ← a) into a zeroed bpart — and reports the first element of
// either output whose bits differ (a NaN matches any NaN). aout and bpart sit
// inside larger backing arrays whose whole length is compared, so a store
// outside a panel shows too.
func pairAgree(c pairCase) error {
	k := batchKernels()[c.kern]
	sd, td := k.SrcDim(), k.TrgDim()
	rng := rand.New(rand.NewSource(c.seed))
	f := math.Ldexp(1, c.scale)
	fill := func(n int, draw func() float64) []float64 {
		v := make([]float64, n)
		for i := range v {
			v[i] = draw()
			if c.special && rng.Intn(8) == 0 {
				v[i] = panelSpecials[rng.Intn(len(panelSpecials))]
			}
		}
		return v
	}
	coord := func() float64 { return rng.Float64() * f }
	ax, ay, az := fill(c.na, coord), fill(c.na, coord), fill(c.na, coord)
	bx, by, bz := fill(c.nb, coord), fill(c.nb, coord), fill(c.nb, coord)
	for p := 0; p < c.planted && c.na > 0 && c.nb > 0; p++ {
		i, j := rng.Intn(c.na), rng.Intn(c.nb)
		bx[j], by[j], bz[j] = ax[i], ay[i], az[i]
	}
	aden, bden := fill(c.na*sd, rng.NormFloat64), fill(c.nb*sd, rng.NormFloat64)
	// Two guard elements on either side of each output.
	aBack, bBack := fill(c.na*td+4, rng.NormFloat64), fill(c.nb*td+4, rng.NormFloat64)
	window := func(b []float64) []float64 { return b[2 : len(b)-2 : len(b)-2] }

	wantA, wantB := slices.Clone(aBack), slices.Clone(bBack)
	bk := AsBatch(k)
	bk.EvalPanel(ax, ay, az, bx, by, bz, bden, window(wantA), -1)
	clear(window(wantB))
	bk.EvalPanel(bx, by, bz, ax, ay, az, aden, window(wantB), -1)

	same := func(a, b float64) bool {
		return math.Float64bits(a) == math.Float64bits(b) || (math.IsNaN(a) && math.IsNaN(b))
	}
	for _, body := range pairBodies(k) {
		gotA, gotB := slices.Clone(aBack), slices.Clone(bBack)
		body.eval(ax, ay, az, bx, by, bz, aden, bden, window(gotA), window(gotB))
		for _, o := range []struct {
			name      string
			got, want []float64
		}{{"aout", gotA, wantA}, {"bpart", gotB, wantB}} {
			for i := range o.got {
				if !same(o.got[i], o.want[i]) {
					return fmt.Errorf("%s %s %+v: %s backing[%d] (element %d) = %v (%#x), two EvalPanel calls %v (%#x)",
						k.Name(), body.name, c, o.name, i, i-2, o.got[i], math.Float64bits(o.got[i]),
						o.want[i], math.Float64bits(o.want[i]))
				}
			}
		}
	}
	return nil
}

// TestEvalPairBitIdentical pins every EvalPair body of every kernel to the two
// EvalPanel calls it replaces, bit for bit: panel lengths around the
// four-lane body and up to a large leaf's, a surface's against a leaf's,
// coincident points across the two panels, NaN/±Inf/±0/denormal coordinates
// and densities (the nanZero path), and coordinates scaled until r² overflows
// or underflows.
func TestEvalPairBitIdentical(t *testing.T) {
	lengths := []int{0, 1, 3, 4, 5, 50, 195, 400}
	seed := int64(0)
	for kern := range batchKernels() {
		for _, na := range lengths {
			for _, nb := range lengths {
				seed++
				cases := []pairCase{
					{kern: kern, na: na, nb: nb, planted: 3, seed: seed},
					{kern: kern, na: na, nb: nb, special: true, seed: seed},
				}
				if na <= 50 && nb <= 50 {
					cases = append(cases,
						pairCase{kern: kern, na: na, nb: nb, planted: 1, scale: 520, seed: seed},
						pairCase{kern: kern, na: na, nb: nb, planted: 1, scale: -540, seed: seed},
						pairCase{kern: kern, na: na, nb: nb, planted: 2, scale: 1000, special: true, seed: seed})
				}
				for _, c := range cases {
					if err := pairAgree(c); err != nil {
						t.Fatal(err)
					}
				}
			}
		}
		// W ⟷ X's shapes: an a-panel of a surface's NumSurf points (orders 4,
		// 6 and 8) against a leaf's b-panel.
		for _, na := range []int{56, 152, 296} {
			for _, nb := range []int{1, 5, 50} {
				seed++
				for _, c := range []pairCase{
					{kern: kern, na: na, nb: nb, planted: 1, seed: seed},
					{kern: kern, na: na, nb: nb, special: true, seed: seed},
				} {
					if err := pairAgree(c); err != nil {
						t.Fatal(err)
					}
				}
			}
		}
	}
}

// FuzzEvalPair searches kernel × panel lengths × coincident pairs × scale ×
// values for an EvalPair body that disagrees in one bit with the two EvalPanel
// calls, or stores outside its outputs. The seeds cover every length pair of
// TestEvalPairBitIdentical up to 50 with and without special values; plain
// `go test` runs them, `make fuzz` searches on for 10 s.
func FuzzEvalPair(f *testing.F) {
	seed := int64(0)
	for kern := uint8(0); kern < 3; kern++ {
		for _, na := range []uint16{0, 1, 3, 4, 5, 50} {
			for _, nb := range []uint16{0, 1, 3, 4, 5, 50} {
				seed++
				f.Add(kern, na, nb, uint8(3), int16(0), seed)
				f.Add(kern, na, nb, uint8(0x81), int16(-540), seed+1)
			}
		}
		f.Add(kern, uint16(195), uint16(13), uint8(0x82), int16(520), int64(kern))
	}
	f.Fuzz(func(t *testing.T, kern uint8, na, nb uint16, planted uint8, scale int16, seed int64) {
		// Lengths 0…200, the top bit of planted selecting the special values,
		// scales within the float64 exponent range.
		c := pairCase{
			kern: int(kern) % len(batchKernels()), na: int(na) % 201, nb: int(nb) % 201,
			planted: int(planted & 7), scale: int(scale) % 1100, special: planted&0x80 != 0, seed: seed,
		}
		if err := pairAgree(c); err != nil {
			t.Fatal(err)
		}
	})
}
