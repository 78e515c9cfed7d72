package linalg_test

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"kifmm/internal/geom"
	"kifmm/internal/kernel"
	"kifmm/internal/kifmm"
	"kifmm/internal/linalg"
)

// referenceSVD is the textbook cyclic one-sided Jacobi SVD that ComputeSVD
// fuses: three separate dot products per column pair, then the rotation. It
// is the oracle ComputeSVD must match bit for bit.
func referenceSVD(a *linalg.Mat) *linalg.SVD {
	m, n := a.Rows, a.Cols
	if m < n {
		// Work on the transpose and swap the factors: Aᵀ = U Σ Vᵀ implies
		// A = V Σ Uᵀ.
		st := referenceSVD(a.T())
		return &linalg.SVD{U: st.V, S: st.S, V: st.U}
	}
	// Column-major working copy of A; w[j] is column j.
	w := make([][]float64, n)
	for j := 0; j < n; j++ {
		col := make([]float64, m)
		for i := 0; i < m; i++ {
			col[i] = a.At(i, j)
		}
		w[j] = col
	}
	// V accumulates the right rotations, stored as columns too.
	v := make([][]float64, n)
	for j := range v {
		v[j] = make([]float64, n)
		v[j][j] = 1
	}

	const eps = 1e-15
	const maxSweeps = 60
	for sweep := 0; sweep < maxSweeps; sweep++ {
		off := 0.0
		for p := 0; p < n-1; p++ {
			for q := p + 1; q < n; q++ {
				alpha := linalg.Dot(w[p], w[p])
				beta := linalg.Dot(w[q], w[q])
				gamma := linalg.Dot(w[p], w[q])
				if math.Abs(gamma) <= eps*math.Sqrt(alpha*beta) || gamma == 0 {
					continue
				}
				off++
				// Jacobi rotation that annihilates the (p,q) entry of AᵀA.
				zeta := (beta - alpha) / (2 * gamma)
				var t float64
				if zeta >= 0 {
					t = 1 / (zeta + math.Sqrt(1+zeta*zeta))
				} else {
					t = -1 / (-zeta + math.Sqrt(1+zeta*zeta))
				}
				c := 1 / math.Sqrt(1+t*t)
				s := c * t
				referenceRotate(w[p], w[q], c, s)
				referenceRotate(v[p], v[q], c, s)
			}
		}
		if off == 0 {
			break
		}
	}

	// Column norms are the singular values; normalize to get U.
	type colSV struct {
		sigma float64
		idx   int
	}
	svs := make([]colSV, n)
	for j := 0; j < n; j++ {
		svs[j] = colSV{linalg.Norm2Vec(w[j]), j}
	}
	// Sort decreasing by sigma (insertion sort: n is small).
	for i := 1; i < n; i++ {
		cur := svs[i]
		j := i - 1
		for j >= 0 && svs[j].sigma < cur.sigma {
			svs[j+1] = svs[j]
			j--
		}
		svs[j+1] = cur
	}

	out := &linalg.SVD{U: linalg.NewMat(m, n), S: make([]float64, n), V: linalg.NewMat(n, n)}
	for k := 0; k < n; k++ {
		src := svs[k].idx
		sigma := svs[k].sigma
		out.S[k] = sigma
		inv := 0.0
		if sigma > 0 {
			inv = 1 / sigma
		}
		for i := 0; i < m; i++ {
			out.U.Set(i, k, w[src][i]*inv)
		}
		for i := 0; i < n; i++ {
			out.V.Set(i, k, v[src][i])
		}
	}
	return out
}

// referenceRotate applies the plane rotation [c -s; s c] to the column pair
// (x, y): x' = c*x - s*y, y' = s*x + c*y.
func referenceRotate(x, y []float64, c, s float64) {
	for i := range x {
		xi, yi := x[i], y[i]
		x[i] = c*xi - s*yi
		y[i] = s*xi + c*yi
	}
}

// sameBits reports the first element of got and want whose float64 bits
// differ ("" when none does).
func sameBits(got, want []float64) string {
	if len(got) != len(want) {
		return fmt.Sprintf("length %d, want %d", len(got), len(want))
	}
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			return fmt.Sprintf("element %d: %v (%#x), want %v (%#x)",
				i, got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
	return ""
}

// checkSVDBits fails t unless ComputeSVD(a) equals referenceSVD(a) bit for
// bit in U, S and V.
func checkSVDBits(t testing.TB, name string, a *linalg.Mat) {
	t.Helper()
	got, want := linalg.ComputeSVD(a), referenceSVD(a)
	for _, f := range []struct {
		name      string
		got, want []float64
	}{{"U", got.U.Data, want.U.Data}, {"S", got.S, want.S}, {"V", got.V.Data, want.V.Data}} {
		if d := sameBits(f.got, f.want); d != "" {
			t.Fatalf("%s (%dx%d): %s differs from the reference: %s", name, a.Rows, a.Cols, f.name, d)
		}
	}
}

func randMat(rng *rand.Rand, r, c int) *linalg.Mat {
	m := linalg.NewMat(r, c)
	for i := range m.Data {
		m.Data[i] = rng.NormFloat64()
	}
	return m
}

// surfaceMatrices returns the two check-to-equivalent matrices whose
// pseudo-inverses the operators of kern at order p take at level l:
// K(upward check, upward equivalent) and K(downward check, downward
// equivalent), on the surfaces kifmm places around an octant of side 2^-l.
func surfaceMatrices(kern kernel.Kernel, p, l int) (uc2ue, dc2de *linalg.Mat) {
	grid := kifmm.NewSurfaceGrid(p)
	half := math.Pow(2, -float64(l)) / 2
	center := geom.Point{}
	inner := grid.Points(center, kifmm.RadInner*half)
	outer := grid.Points(center, kifmm.RadOuter*half)
	return kernel.Matrix(kern, outer, inner), kernel.Matrix(kern, inner, outer)
}

// TestComputeSVDBitIdentical pins the fused Jacobi pass to the reference
// loop: random square, tall, wide and rank-deficient matrices, and the
// surface matrices the FMM operators actually invert.
func TestComputeSVDBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(28))
	for _, sz := range [][2]int{{1, 1}, {1, 5}, {5, 1}, {2, 2}, {7, 7}, {40, 40}, {60, 25}, {25, 60}, {97, 97}} {
		checkSVDBits(t, fmt.Sprintf("random %dx%d", sz[0], sz[1]), randMat(rng, sz[0], sz[1]))
	}
	// Rank-deficient: a rank-3 product, a zero column, the zero matrix.
	lowRank := randMat(rng, 30, 3).Mul(randMat(rng, 3, 20))
	checkSVDBits(t, "rank 3", lowRank)
	zeroCol := randMat(rng, 12, 8)
	for i := 0; i < zeroCol.Rows; i++ {
		zeroCol.Set(i, 5, 0)
	}
	checkSVDBits(t, "zero column", zeroCol)
	checkSVDBits(t, "zero", linalg.NewMat(6, 4))

	cases := []struct {
		kern   kernel.Kernel
		p      int
		levels []int
	}{
		{kernel.Laplace{}, 4, []int{0}},
		{kernel.Laplace{}, 6, []int{0}},
		{kernel.Stokes{}, 4, []int{0}},
		{kernel.Stokes{}, 5, []int{0}},
		{kernel.Yukawa{Lambda: 5}, 6, []int{0, 3}},
	}
	for _, c := range cases {
		for _, l := range c.levels {
			uc2ue, dc2de := surfaceMatrices(c.kern, c.p, l)
			name := fmt.Sprintf("%s p=%d level %d", c.kern.Name(), c.p, l)
			checkSVDBits(t, name+" uc→ue", uc2ue)
			checkSVDBits(t, name+" dc→de", dc2de)
		}
	}
}

// FuzzComputeSVD decodes a small matrix from the fuzz bytes — two shape
// bytes, then two bytes per element (a signed mantissa and a binary
// exponent, so entries are finite and zeros and wide magnitude ranges
// occur) — and requires ComputeSVD to equal the reference bit for bit.
func FuzzComputeSVD(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		m, n := 1+int(data[0])%9, 1+int(data[1])%9
		a := linalg.NewMat(m, n)
		body := data[2:]
		for i := range a.Data {
			if 2*i+1 >= len(body) {
				break
			}
			a.Data[i] = math.Ldexp(float64(int8(body[2*i])), int(body[2*i+1]%32)-16)
		}
		checkSVDBits(t, "fuzz", a)
	})
}

// BenchmarkComputeSVD times the SVD of the upward check-to-equivalent
// matrix of Laplace at order 6 (152×152) and Stokes at order 5 (294×294),
// the largest surface solves the benchmark workloads build.
func BenchmarkComputeSVD(b *testing.B) {
	for _, c := range []struct {
		kern kernel.Kernel
		p    int
	}{{kernel.Laplace{}, 6}, {kernel.Stokes{}, 5}} {
		a, _ := surfaceMatrices(c.kern, c.p, 0)
		b.Run(fmt.Sprintf("n=%d", a.Cols), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				linalg.ComputeSVD(a)
			}
		})
	}
}
