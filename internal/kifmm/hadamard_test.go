package kifmm

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"kifmm/internal/kernel"
)

// hadamardSpecials are the values a rounding or lane mix-up shows on first:
// NaN, both infinities, both zeros, the denormal range and the overflow edge.
var hadamardSpecials = []float64{
	math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1), 0,
	math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, 0x1p-1040, -0x1p-1030,
	math.MaxFloat64, -math.MaxFloat64, 0x1p-537, 1,
}

// hadamardPanelsAgree runs the dispatching kernel (vector body + Go tail) and
// the Go loop alone on identical panels of length n that start off elements
// into their backing arrays, and reports the first element whose bits differ
// (a NaN matches any NaN: x86 picks the payload by operand order). One value
// in four is drawn from hadamardSpecials when special is set.
func hadamardPanelsAgree(n, off int, seed int64, special bool) error {
	rng := rand.New(rand.NewSource(seed))
	panel := func() []float64 {
		p := make([]float64, off+n+4)
		for i := range p {
			p[i] = rng.NormFloat64()
			if special && rng.Intn(4) == 0 {
				p[i] = hadamardSpecials[rng.Intn(len(hadamardSpecials))]
			}
		}
		return p
	}
	tr, ti, sr, si := panel(), panel(), panel(), panel()
	ar, ai := panel(), panel()
	gr, gi := slices.Clone(ar), slices.Clone(ai)
	hadamardPanels(ar[off:off+n], ai[off:off+n], tr[off:off+n], ti[off:off+n], sr[off:off+n], si[off:off+n])
	hadamardGo(gr[off:off+n], gi[off:off+n], tr[off:off+n], ti[off:off+n], sr[off:off+n], si[off:off+n], 0)
	// The whole backing arrays are compared, so a store outside the panel
	// shows too.
	for _, c := range []struct {
		name      string
		got, want []float64
	}{{"re", ar, gr}, {"im", ai, gi}} {
		for i := range c.got {
			g, w := c.got[i], c.want[i]
			if math.Float64bits(g) != math.Float64bits(w) && !(math.IsNaN(g) && math.IsNaN(w)) {
				return fmt.Errorf("n=%d off=%d seed=%d: %s[%d] = %v (%#x), Go loop %v (%#x)",
					n, off, seed, c.name, i-off, g, math.Float64bits(g), w, math.Float64bits(w))
			}
		}
	}
	return nil
}

// hadamardKernelCases is the (length, element offset) table of
// TestHadamardKernelsAgree and the seed corpus of FuzzHadamardPanels: every
// tail length around the 4-lane body, the two production panel lengths
// (orders 6 and 5), and every misalignment of the first element.
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

// TestHadamardKernelsAgree: the AVX2 body is the Go loop, bit for bit, on
// ordinary and on special values, at every alignment and tail length, with
// the accumulator aliasing neither operand.
func TestHadamardKernelsAgree(t *testing.T) {
	if !kernel.UseAVX2 {
		t.Skip("no vector kernel in this build or no OS-enabled AVX2 on this CPU: hadamardPanels is the Go loop")
	}
	for k, c := range hadamardKernelCases() {
		for _, special := range []bool{false, true} {
			if err := hadamardPanelsAgree(c[0], c[1], int64(k), special); err != nil {
				t.Fatalf("special=%v: %v", special, err)
			}
		}
	}
}

// FuzzHadamardPanels searches (length, offset, seed) for a panel on which the
// vector body and the Go loop disagree. `make ci` runs it for 10 s.
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
