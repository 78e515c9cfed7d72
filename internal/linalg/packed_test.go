package linalg

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// refMulVec is the oracle every packed kernel is held to: the textbook row
// loop over a row-major matrix, y[i] = Σ_j A[i][j]·x[j] summed from +0 over
// ascending j with the product rounded before the add, then stored into y
// or added to it once.
func refMulVec(a *Mat, y, x []float64, add bool) {
	for i := 0; i < a.Rows; i++ {
		var s float64
		for j := 0; j < a.Cols; j++ {
			s += float64(a.Data[i*a.Cols+j] * x[j])
		}
		if add {
			y[i] += s
		} else {
			y[i] = s
		}
	}
}

// packedSpecials are the values a lane or rounding mix-up shows on first:
// NaN, both infinities, both zeros, the denormal range and the overflow
// edge.
var packedSpecials = []float64{
	math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1), 0,
	math.SmallestNonzeroFloat64, -0x1p-1030, math.MaxFloat64, -math.MaxFloat64, 0x1p-537, 1,
}

// sameBits reports whether got and want hold the same bits at every index
// (a NaN matches any NaN: x86 picks the payload by operand order), and
// names the first difference otherwise.
func sameBits(got, want []float64) error {
	for i := range want {
		g, w := got[i], want[i]
		if math.Float64bits(g) != math.Float64bits(w) && !(math.IsNaN(g) && math.IsNaN(w)) {
			return fmt.Errorf("element %d is %v (%#x), want %v (%#x)", i, g, math.Float64bits(g), w, math.Float64bits(w))
		}
	}
	return nil
}

// packCopy packs a copy of a, leaving a intact.
func packCopy(a *Mat) *Packed {
	return Pack(&Mat{Rows: a.Rows, Cols: a.Cols, Data: slices.Clone(a.Data)})
}

// packedAgrees runs Packed.MulVec and MulVecAdd (into y0) on a packed copy
// of a — the dispatching kernel — and the Go panel loop alone, and compares
// each with refMulVec, bit for bit. y lives inside a larger guarded array,
// so a store past it shows too.
func packedAgrees(a *Mat, x, y0 []float64) error {
	p := packCopy(a)
	const guard = 5
	for _, add := range []bool{false, true} {
		want := slices.Clone(y0)
		refMulVec(a, want, x, add)
		for _, k := range []struct {
			name string
			run  func(y []float64)
		}{
			{"Packed", func(y []float64) {
				if add {
					p.MulVecAdd(y, x)
				} else {
					p.MulVec(y, x)
				}
			}},
			{"Go panel loop", func(y []float64) {
				full := a.Rows &^ 3
				packedGo(p.Data[:full*a.Cols], x, y[:full], add)
				mulRows(p.Data[full*a.Cols:], x, y[full:], add)
			}},
		} {
			buf := make([]float64, a.Rows+2*guard)
			for i := range buf {
				buf[i] = -7
			}
			copy(buf[guard:], y0)
			k.run(buf[guard : guard+a.Rows])
			wantBuf := slices.Clone(buf)
			copy(wantBuf[guard:], want)
			if err := sameBits(buf, wantBuf); err != nil {
				return fmt.Errorf("%s %dx%d add=%v: guarded %v", k.name, a.Rows, a.Cols, add, err)
			}
		}
	}
	return nil
}

// randPacked fills a rows×cols matrix, x and a prefilled y with normal
// values spread over 2^±spread, one in four drawn from packedSpecials when
// special is set.
func randPacked(rng *rand.Rand, rows, cols, spread int, special bool) (*Mat, []float64, []float64) {
	val := func() float64 {
		if special && rng.Intn(4) == 0 {
			return packedSpecials[rng.Intn(len(packedSpecials))]
		}
		return math.Ldexp(rng.NormFloat64(), rng.Intn(2*spread+1)-spread)
	}
	a := NewMat(rows, cols)
	for i := range a.Data {
		a.Data[i] = val()
	}
	x, y := make([]float64, cols), make([]float64, rows)
	for i := range x {
		x[i] = val()
	}
	for i := range y {
		y[i] = val()
	}
	return a, x, y
}

// TestPackedMulVecBitIdentical: every row count mod 4, 0 and 1 columns, an
// odd and an even number of four-row groups, and the two production shapes
// (Laplace order 6, Stokes order 5), on ordinary, widely spread and special
// values.
func TestPackedMulVecBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	shapes := [][2]int{{152, 152}, {294, 294}, {294, 152}}
	for rows := 0; rows <= 13; rows++ {
		for _, cols := range []int{0, 1, 2, 3, 7, 16} {
			shapes = append(shapes, [2]int{rows, cols})
		}
	}
	for _, sh := range shapes {
		for _, c := range []struct {
			spread  int
			special bool
		}{{0, false}, {300, false}, {8, true}} {
			a, x, y := randPacked(rng, sh[0], sh[1], c.spread, c.special)
			if err := packedAgrees(a, x, y); err != nil {
				t.Fatalf("spread %d special %v: %v", c.spread, c.special, err)
			}
		}
	}
}

// FuzzMulVec decodes a matrix, x and a prefilled y from the fuzz bytes —
// two shape bytes (rows 0–13, so every Rows%4 with up to three groups;
// columns 0–9), then two bytes per value: a signed mantissa and a binary
// exponent over ±2^100, or one of packedSpecials when the exponent byte
// is 250 or more — and requires the packed kernels to equal the row loop
// bit for bit. `make fuzz` runs it for 10 s.
func FuzzMulVec(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		rows, cols := int(data[0])%14, int(data[1])%10
		body := data[2:]
		k := 0
		next := func() float64 {
			if 2*k+1 >= len(body) {
				return 0
			}
			m, e := body[2*k], body[2*k+1]
			k++
			if e >= 250 {
				return packedSpecials[int(m)%len(packedSpecials)]
			}
			return math.Ldexp(float64(int8(m)), int(e%201)-100)
		}
		a := NewMat(rows, cols)
		for i := range a.Data {
			a.Data[i] = next()
		}
		x, y := make([]float64, cols), make([]float64, rows)
		for i := range x {
			x[i] = next()
		}
		for i := range y {
			y[i] = next()
		}
		if err := packedAgrees(a, x, y); err != nil {
			t.Fatal(err)
		}
	})
}

// TestPackedMulVecAllocs pins warm packed products at zero allocations.
func TestPackedMulVecAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	a, x, y := randPacked(rng, 294, 294, 0, false)
	p := packCopy(a)
	if n := testing.AllocsPerRun(100, func() { p.MulVec(y, x) }); n != 0 {
		t.Errorf("Packed.MulVec: %.0f allocations, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() { p.MulVecAdd(y, x) }); n != 0 {
		t.Errorf("Packed.MulVecAdd: %.0f allocations, want 0", n)
	}
}

// BenchmarkMulVec times one matrix-vector product at the largest surface
// operator shapes the workloads apply — 152² (Laplace order 6) and 294²
// (Stokes order 5) — through the row loop (scalar, Mat.MulVec), the
// dispatching packed product (packed: the AVX2 kernel where the CPU has
// it) and the Go panel loop alone (packed-go, what purego builds run).
// "resident" reuses one operator, which stays in L2; "rotating" cycles
// through 18 — one level's table — as the upward and downward passes do.
func BenchmarkMulVec(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	for _, n := range []int{152, 294} {
		for _, set := range []struct {
			name string
			ops  int
		}{{"resident", 1}, {"rotating", 18}} {
			mats := make([]*Mat, set.ops)
			packed := make([]*Packed, set.ops)
			for k := range mats {
				mats[k], _, _ = randPacked(rng, n, n, 0, false)
				packed[k] = packCopy(mats[k])
			}
			x, y := make([]float64, n), make([]float64, n)
			for i := range x {
				x[i] = rng.NormFloat64()
			}
			prefix := fmt.Sprintf("n=%d/%s/", n, set.name)
			b.Run(prefix+"scalar", func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					mats[i%set.ops].MulVec(y, x)
				}
			})
			b.Run(prefix+"packed", func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					packed[i%set.ops].MulVec(y, x)
				}
			})
			b.Run(prefix+"packed-go", func(b *testing.B) {
				full := n &^ 3
				for i := 0; i < b.N; i++ {
					p := packed[i%set.ops]
					packedGo(p.Data[:full*n], x, y[:full], false)
					mulRows(p.Data[full*n:], x, y[full:], false)
				}
			})
		}
	}
}
