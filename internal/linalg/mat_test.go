package linalg

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestMatBasicOps(t *testing.T) {
	a := FromRows([][]float64{{1, 2}, {3, 4}, {5, 6}})
	if a.Rows != 3 || a.Cols != 2 {
		t.Fatalf("bad shape %dx%d", a.Rows, a.Cols)
	}
	if a.At(2, 1) != 6 {
		t.Fatalf("At(2,1)=%v want 6", a.At(2, 1))
	}
	a.Set(0, 0, 10)
	if a.At(0, 0) != 10 {
		t.Fatalf("Set failed")
	}
	at := a.T()
	if at.Rows != 2 || at.Cols != 3 || at.At(1, 2) != 6 || at.At(0, 0) != 10 {
		t.Fatalf("transpose wrong: %+v", at)
	}
}

func TestMulVec(t *testing.T) {
	a := FromRows([][]float64{{1, 2, 3}, {4, 5, 6}})
	x := []float64{1, 1, 1}
	y := make([]float64, 2)
	a.MulVec(y, x)
	if y[0] != 6 || y[1] != 15 {
		t.Fatalf("MulVec got %v", y)
	}
	p := Pack(a)
	p.MulVec(y, x)
	if y[0] != 6 || y[1] != 15 {
		t.Fatalf("Packed.MulVec got %v", y)
	}
	p.MulVecAdd(y, x)
	if y[0] != 12 || y[1] != 30 {
		t.Fatalf("Packed.MulVecAdd got %v", y)
	}
}

func TestMulVecPanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatalf("expected panic")
		}
	}()
	a := NewMat(2, 3)
	a.MulVec(make([]float64, 2), make([]float64, 2))
}

func TestPackedMulVecPanicsOnMismatch(t *testing.T) {
	p := Pack(NewMat(5, 3))
	for name, f := range map[string]func(){
		"MulVec x":    func() { p.MulVec(make([]float64, 5), make([]float64, 2)) },
		"MulVecAdd y": func() { p.MulVecAdd(make([]float64, 4), make([]float64, 3)) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			f()
		}()
	}
}

func TestMatMul(t *testing.T) {
	a := FromRows([][]float64{{1, 2}, {3, 4}})
	b := FromRows([][]float64{{5, 6}, {7, 8}})
	c := a.Mul(b)
	want := [][]float64{{19, 22}, {43, 50}}
	for i := 0; i < 2; i++ {
		for j := 0; j < 2; j++ {
			if c.At(i, j) != want[i][j] {
				t.Fatalf("Mul(%d,%d)=%v want %v", i, j, c.At(i, j), want[i][j])
			}
		}
	}
}

func TestMulAssociatesWithIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	a := randMat(rng, 5, 7)
	id := NewMat(7, 7)
	for i := 0; i < 7; i++ {
		id.Set(i, i, 1)
	}
	c := a.Mul(id)
	for i := range a.Data {
		if !almostEq(c.Data[i], a.Data[i], 1e-14) {
			t.Fatalf("A*I != A at %d", i)
		}
	}
}

func TestDotAxpyNorm(t *testing.T) {
	x := []float64{3, 4}
	if Norm2Vec(x) != 5 {
		t.Fatalf("Norm2Vec=%v", Norm2Vec(x))
	}
	if Dot(x, []float64{1, 2}) != 11 {
		t.Fatalf("Dot wrong")
	}
}

func randMat(rng *rand.Rand, r, c int) *Mat {
	m := NewMat(r, c)
	for i := range m.Data {
		m.Data[i] = rng.NormFloat64()
	}
	return m
}

func TestSVDReconstructsMatrix(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for _, sz := range [][2]int{{4, 4}, {8, 5}, {5, 8}, {12, 12}, {1, 3}, {3, 1}} {
		a := randMat(rng, sz[0], sz[1])
		svd := ComputeSVD(a)
		// Rebuild A = U Σ Vᵀ.
		k := len(svd.S)
		recon := NewMat(a.Rows, a.Cols)
		for i := 0; i < a.Rows; i++ {
			for j := 0; j < a.Cols; j++ {
				var s float64
				for l := 0; l < k; l++ {
					s += svd.U.At(i, l) * svd.S[l] * svd.V.At(j, l)
				}
				recon.Set(i, j, s)
			}
		}
		for i := range a.Data {
			if !almostEq(recon.Data[i], a.Data[i], 1e-10) {
				t.Fatalf("size %v: reconstruction error at %d: %v vs %v",
					sz, i, recon.Data[i], a.Data[i])
			}
		}
		// Singular values sorted decreasing and nonnegative.
		for l := 1; l < k; l++ {
			if svd.S[l] > svd.S[l-1]+1e-12 {
				t.Fatalf("singular values not sorted: %v", svd.S)
			}
			if svd.S[l] < 0 {
				t.Fatalf("negative singular value")
			}
		}
	}
}

func TestSVDOrthogonality(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	a := randMat(rng, 10, 6)
	svd := ComputeSVD(a)
	// UᵀU = I and VᵀV = I.
	utu := svd.U.T().Mul(svd.U)
	vtv := svd.V.T().Mul(svd.V)
	for i := 0; i < 6; i++ {
		for j := 0; j < 6; j++ {
			want := 0.0
			if i == j {
				want = 1.0
			}
			if !almostEq(utu.At(i, j), want, 1e-10) {
				t.Fatalf("UᵀU(%d,%d)=%v", i, j, utu.At(i, j))
			}
			if !almostEq(vtv.At(i, j), want, 1e-10) {
				t.Fatalf("VᵀV(%d,%d)=%v", i, j, vtv.At(i, j))
			}
		}
	}
}

func TestPinvSolvesWellConditionedSystem(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	a := randMat(rng, 9, 9)
	// Make it comfortably nonsingular.
	for i := 0; i < 9; i++ {
		a.Set(i, i, a.At(i, i)+5)
	}
	xTrue := make([]float64, 9)
	for i := range xTrue {
		xTrue[i] = rng.Float64()
	}
	b := make([]float64, 9)
	a.MulVec(b, xTrue)

	for name, pinv := range map[string]*Mat{
		"tikhonov":  PinvTikhonov(a, 1e-12),
		"truncated": PinvTruncated(a, 1e-12),
	} {
		x := make([]float64, 9)
		pinv.MulVec(x, b)
		for i := range x {
			if !almostEq(x[i], xTrue[i], 1e-6) {
				t.Fatalf("%s: x[%d]=%v want %v", name, i, x[i], xTrue[i])
			}
		}
	}
}

func TestPinvRegularizesRankDeficient(t *testing.T) {
	// Rank-1 matrix: regularized pinv must stay bounded.
	a := FromRows([][]float64{{1, 2}, {2, 4}})
	for name, p := range map[string]*Mat{
		"regularized": PinvTikhonov(a, 1e-6),
		"truncated":   PinvTruncated(a, 1e-8),
	} {
		for _, v := range p.Data {
			if !(math.Abs(v) <= 1e7) { // NaN fails the comparison too
				t.Fatalf("%s pinv blew up: element %v", name, v)
			}
		}
	}
}

// Property: pinv(A)·A·x ≈ x for random well-conditioned square A (quick check
// of the Moore-Penrose behaviour on full-rank inputs).
func TestQuickPinvIdentityProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 2 + r.Intn(6)
		a := randMat(r, n, n)
		for i := 0; i < n; i++ {
			a.Set(i, i, a.At(i, i)+4)
		}
		p := PinvTruncated(a, 1e-13)
		x := make([]float64, n)
		for i := range x {
			x[i] = r.NormFloat64()
		}
		ax := make([]float64, n)
		a.MulVec(ax, x)
		xr := make([]float64, n)
		p.MulVec(xr, ax)
		for i := range x {
			if !almostEq(xr[i], x[i], 1e-6*(1+math.Abs(x[i]))) {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 25, Rand: rng}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// Property: SVD of Aᵀ has the same singular values as A.
func TestQuickSVDTransposeInvariant(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		m, n := 2+r.Intn(6), 2+r.Intn(6)
		a := randMat(r, m, n)
		s1 := ComputeSVD(a).S
		s2 := ComputeSVD(a.T()).S
		if len(s1) != len(s2) {
			return false
		}
		for i := range s1 {
			if !almostEq(s1[i], s2[i], 1e-9*(1+s1[0])) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}
