package kifmm

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"kifmm/internal/geom"
	"kifmm/internal/kernel"
	"kifmm/internal/linalg"
)

// These tests check the KIFMM representations at the operator level, against
// the physics they encode rather than against the engine: an upward
// equivalent density must reproduce its sources' far field, the U2U
// translation must preserve it, and the M2L + downward solve must hand a
// valid local field to the target box.

// boxSources scatters n random unit-strength sources inside the octant
// (center, half).
func boxSources(rng *rand.Rand, center geom.Point, half float64, n int) ([]geom.Point, []float64) {
	pts := make([]geom.Point, n)
	den := make([]float64, n)
	for i := range pts {
		pts[i] = geom.Point{
			X: center.X + (2*rng.Float64()-1)*half*0.98,
			Y: center.Y + (2*rng.Float64()-1)*half*0.98,
			Z: center.Z + (2*rng.Float64()-1)*half*0.98,
		}
		den[i] = rng.NormFloat64()
	}
	return pts, den
}

// upwardDensity computes u for sources in the reference box (center origin,
// side 1) exactly as Engine.S2U does.
func upwardDensity(ops *Operators, srcs []geom.Point, den []float64) []float64 {
	uc := ops.Grid.Points(geom.Point{}, RadOuter*0.5)
	chk := make([]float64, ops.CheckLen())
	td := ops.Kern.TrgDim()
	sd := ops.Kern.SrcDim()
	for i, s := range srcs {
		for ci, cp := range uc {
			ops.Kern.Eval(cp, s, den[i*sd:(i+1)*sd], chk[ci*td:(ci+1)*td])
		}
	}
	u := make([]float64, ops.UpwardLen())
	ops.levels[0].Load().UC2UE.MulVec(u, chk)
	return u
}

// evalEquivalent evaluates an equivalent density field (on a surface of the
// given radius around center) at a point.
func evalEquivalent(ops *Operators, u []float64, center geom.Point, radius float64, at geom.Point) []float64 {
	ue := ops.Grid.Points(center, radius)
	out := make([]float64, ops.Kern.TrgDim())
	sd := ops.Kern.SrcDim()
	for i, sp := range ue {
		ops.Kern.Eval(at, sp, u[i*sd:(i+1)*sd], out)
	}
	return out
}

func TestUpwardEquivalentReproducesFarField(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	ops := NewOperators(kernel.Laplace{}, 6, 1e-9)
	srcs, den := boxSources(rng, geom.Point{}, 0.5, 40)
	u := upwardDensity(ops, srcs, den)

	// Evaluate at points outside the 3×-box colleague volume.
	for trial := 0; trial < 20; trial++ {
		dir := geom.Point{X: rng.NormFloat64(), Y: rng.NormFloat64(), Z: rng.NormFloat64()}
		dir = dir.Scale(1 / dir.Norm())
		at := dir.Scale(1.6 + rng.Float64()) // ‖at‖ ≥ 1.6 > 1.5 (3×half)
		want := make([]float64, 1)
		for i, s := range srcs {
			ops.Kern.Eval(at, s, den[i:i+1], want)
		}
		got := evalEquivalent(ops, u, geom.Point{}, RadInner*0.5, at)
		if math.Abs(got[0]-want[0]) > 2e-6*(1+math.Abs(want[0])) {
			t.Fatalf("far field mismatch at %v: %v vs %v", at, got[0], want[0])
		}
	}
}

func TestU2UPreservesFarField(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	ops := NewOperators(kernel.Laplace{}, 6, 1e-9)
	// Sources in child 3 of the reference box.
	cc := childCenter(geom.Point{}, 0.5, 3)
	srcs, den := boxSources(rng, cc, 0.25, 30)

	// Child upward density (child scale: level 1 relative to reference).
	uc := ops.Grid.Points(cc, RadOuter*0.25)
	chk := make([]float64, ops.CheckLen())
	for i, s := range srcs {
		for ci, cp := range uc {
			ops.Kern.Eval(cp, s, den[i:i+1], chk[ci:ci+1])
		}
	}
	uChild := make([]float64, ops.UpwardLen())
	tmp := make([]float64, ops.UpwardLen())
	ops.levels[0].Load().UC2UE.MulVec(tmp, chk)
	for i := range tmp {
		uChild[i] = tmp[i] * ops.PinvScale(1)
	}

	// Parent density via the U2U translation.
	uParent := make([]float64, ops.UpwardLen())
	ops.levels[0].Load().U2U[3].MulVec(uParent, uChild)

	// Both must reproduce the true far field.
	for trial := 0; trial < 10; trial++ {
		dir := geom.Point{X: rng.NormFloat64(), Y: rng.NormFloat64(), Z: rng.NormFloat64()}
		dir = dir.Scale(1 / dir.Norm())
		at := dir.Scale(1.7 + rng.Float64())
		want := make([]float64, 1)
		for i, s := range srcs {
			ops.Kern.Eval(at, s, den[i:i+1], want)
		}
		got := evalEquivalent(ops, uParent, geom.Point{}, RadInner*0.5, at)
		if math.Abs(got[0]-want[0]) > 5e-6*(1+math.Abs(want[0])) {
			t.Fatalf("U2U far field mismatch at %v: %v vs %v", at, got[0], want[0])
		}
	}
}

func TestM2LDownwardReproducesLocalField(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	ops := NewOperators(kernel.Laplace{}, 6, 1e-9)
	// Source box at origin; target box two boxes away (a valid V-list
	// direction).
	srcs, den := boxSources(rng, geom.Point{}, 0.5, 30)
	u := upwardDensity(ops, srcs, den)

	trgCenter := geom.Point{X: 2, Y: 1, Z: 0}
	m, _ := ops.M2LAt(0, 2, 1, 0)
	dchk := make([]float64, ops.CheckLen())
	m.MulVec(dchk, u)
	d := make([]float64, ops.UpwardLen())
	ops.levels[0].Load().DC2DE.MulVec(d, dchk)

	// The downward equivalent density must reproduce the sources' field
	// inside the target box.
	for trial := 0; trial < 20; trial++ {
		at := geom.Point{
			X: trgCenter.X + (2*rng.Float64()-1)*0.45,
			Y: trgCenter.Y + (2*rng.Float64()-1)*0.45,
			Z: trgCenter.Z + (2*rng.Float64()-1)*0.45,
		}
		want := make([]float64, 1)
		for i, s := range srcs {
			ops.Kern.Eval(at, s, den[i:i+1], want)
		}
		got := evalEquivalent(ops, d, trgCenter, RadOuter*0.5, at)
		if math.Abs(got[0]-want[0]) > 5e-6*(1+math.Abs(want[0])) {
			t.Fatalf("local field mismatch at %v: %v vs %v", at, got[0], want[0])
		}
	}
}

func TestFFTTranslationMatchesDenseM2L(t *testing.T) {
	// The FFT path evaluates the identical operator: compare the full
	// matrix action on random vectors for several directions.
	ops := NewOperators(kernel.Laplace{}, 4, 1e-9)
	f := NewFFTM2L(ops)
	rng := rand.New(rand.NewSource(4))
	for _, dir := range [][3]int{{2, 0, 0}, {-2, 1, 3}, {3, -3, 2}, {0, 2, -1}} {
		m, _ := ops.M2LAt(0, dir[0], dir[1], dir[2])
		u := make([]float64, ops.UpwardLen())
		for i := range u {
			u[i] = rng.NormFloat64()
		}
		want := make([]float64, ops.CheckLen())
		m.MulVec(want, u)

		spec := f.SourceSpectrum(u)
		tf := f.Translation(dir[0], dir[1], dir[2])
		acc := make([]float64, f.AccLen())
		Hadamard(acc, tf, spec, 1, 1, f.HalfLen())
		got := make([]float64, ops.CheckLen())
		f.ExtractCheck(acc, 1.0, got, make([]float64, f.GridLen()))

		for i := range want {
			if math.Abs(got[i]-want[i]) > 1e-10*(1+math.Abs(want[i])) {
				t.Fatalf("dir %v: FFT vs dense M2L differ at %d: %v vs %v",
					dir, i, got[i], want[i])
			}
		}
	}
}

func TestStokesOperatorsFarField(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	ops := NewOperators(kernel.Stokes{}, 4, 1e-9)
	srcs, den := boxSources(rng, geom.Point{}, 0.5, 20)
	sd := 3
	den3 := make([]float64, len(srcs)*sd)
	for i := range den3 {
		den3[i] = rng.NormFloat64()
	}
	_ = den
	u := upwardDensity(ops, srcs, den3)
	at := geom.Point{X: 2.2, Y: 0.3, Z: -0.7}
	want := make([]float64, 3)
	for i, s := range srcs {
		ops.Kern.Eval(at, s, den3[i*3:(i+1)*3], want)
	}
	got := evalEquivalent(ops, u, geom.Point{}, RadInner*0.5, at)
	for c := 0; c < 3; c++ {
		if math.Abs(got[c]-want[c]) > 1e-3*(1+math.Abs(want[c])) {
			t.Fatalf("stokes far field component %d: %v vs %v", c, got[c], want[c])
		}
	}
}

// BenchmarkNewOperators times one operator build at NewOperators' fan-out
// and at 1 worker, the fan-out of a solver with Workers 1: the reference
// level of Laplace at order 6 and Stokes at order 5 (the benchmark
// workloads' orders), and one per-level table of Yukawa at order 6, which a
// Yukawa plan builds once per tree level.
func BenchmarkNewOperators(b *testing.B) {
	for _, workers := range []int{buildWorkers, 1} {
		b.Run(fmt.Sprintf("laplace/6/workers%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				newOperators(kernel.Laplace{}, 6, 1e-9, workers)
			}
		})
		b.Run(fmt.Sprintf("stokes/5/workers%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				newOperators(kernel.Stokes{}, 5, 1e-9, workers)
			}
		})
		b.Run(fmt.Sprintf("yukawa/6/workers%d", workers), func(b *testing.B) {
			ops := NewOperators(kernel.Yukawa{Lambda: 5}, 6, 1e-9)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ops.buildLevel(3, workers)
			}
		})
	}
}

// TestCheckMatricesTranspose pins the precondition buildLevel's one
// factorization per level relies on: for Laplace, Stokes and Yukawa at
// orders 4, 6 and 8 and levels 0, 3 and 7, the downward kernel matrix
// K(inner, outer) is bit for bit the transpose of the upward one
// K(outer, inner), so DC2DE can be UC2UE's transpose, and for each of the
// eight children the U2U kernel matrix K(outer, child) is bit for bit the
// transpose of the D2D one K(child, outer), so each is evaluated once. Each
// kernel evaluates K(x, y) and K(y, x) with exactly negated differences
// and, for Stokes, commuted products.
func TestCheckMatricesTranspose(t *testing.T) {
	// transposed reports the first element where a differs from bᵀ.
	transposed := func(a, b *linalg.Mat) string {
		if a.Rows != b.Cols || a.Cols != b.Rows {
			return fmt.Sprintf("shapes %dx%d and %dx%d", a.Rows, a.Cols, b.Rows, b.Cols)
		}
		for i := 0; i < a.Rows; i++ {
			for j := 0; j < a.Cols; j++ {
				if math.Float64bits(a.At(i, j)) != math.Float64bits(b.At(j, i)) {
					return fmt.Sprintf("[%d][%d] = %v, transpose has %v", i, j, a.At(i, j), b.At(j, i))
				}
			}
		}
		return ""
	}
	for _, kern := range []kernel.Kernel{kernel.Laplace{}, kernel.Stokes{}, kernel.Yukawa{Lambda: 5}} {
		for _, p := range []int{4, 6, 8} {
			grid := NewSurfaceGrid(p)
			for _, l := range []int{0, 3, 7} {
				half := math.Pow(2, -float64(l)) / 2
				inner := grid.Points(geom.Point{}, RadInner*half)
				outer := grid.Points(geom.Point{}, RadOuter*half)
				if d := transposed(kernel.Matrix(kern, inner, outer), kernel.Matrix(kern, outer, inner)); d != "" {
					t.Fatalf("%s p=%d level %d: K(inner, outer): %s", kern.Name(), p, l, d)
				}
				for c := 0; c < 8; c++ {
					child := grid.Points(childCenter(geom.Point{}, half, c), RadInner*half/2)
					if d := transposed(kernel.Matrix(kern, outer, child), kernel.Matrix(kern, child, outer)); d != "" {
						t.Fatalf("%s p=%d level %d child %d: K(outer, child): %s", kern.Name(), p, l, c, d)
					}
				}
			}
		}
	}
}

// TestDC2DEMatchesOwnSolve holds the computation buildLevel replaced as the
// reference: DC2DE, UC2UE's transpose, against a Tikhonov solve of its own
// on K(inner, outer), in relative Frobenius norm. In exact arithmetic they
// are equal ((Kᵀ)⁺_α = (K⁺_α)ᵀ); in floating point the two Jacobi SVDs run
// different rotation sequences. Laplace and Yukawa run at orders 4, 6 and
// 8, Stokes at 4 and 6 (its order-8 surface matrix is 888², two SVDs of
// ≈ 30 s a level), all at levels 0 and 3. Measured worst cases: 2.6e-12 at
// order 4, 3.8e-9 at order 6 (Stokes), 1.1e-8 at order 8 (Laplace).
func TestDC2DEMatchesOwnSolve(t *testing.T) {
	if testing.Short() {
		t.Skip("runs two SVDs per kernel, order and level")
	}
	bound := map[int]float64{4: 1e-11, 6: 1e-8, 8: 3e-8}
	for _, c := range []struct {
		kern   kernel.Kernel
		orders []int
	}{
		{kernel.Laplace{}, []int{4, 6, 8}},
		{kernel.Stokes{}, []int{4, 6}},
		{kernel.Yukawa{Lambda: 5}, []int{4, 6, 8}},
	} {
		for _, p := range c.orders {
			o := &Operators{Kern: c.kern, Grid: NewSurfaceGrid(p), Tol: 1e-9}
			for _, l := range []int{0, 3} {
				half := math.Pow(2, -float64(l)) / 2
				inner := o.Grid.Points(geom.Point{}, RadInner*half)
				outer := o.Grid.Points(geom.Point{}, RadOuter*half)
				got := o.buildLevel(l, buildWorkers).DC2DE.Data
				want := linalg.Pack(linalg.PinvTikhonov(kernel.Matrix(c.kern, inner, outer), o.Tol)).Data
				var num, den float64
				for i, w := range want {
					num += (got[i] - w) * (got[i] - w)
					den += w * w
				}
				rel := math.Sqrt(num / den)
				t.Logf("%s p=%d level %d: %.3e", c.kern.Name(), p, l, rel)
				if !(rel <= bound[p]) {
					t.Errorf("%s p=%d level %d: DC2DE differs from its own solve by %.3e (relative Frobenius), bound %.0e",
						c.kern.Name(), p, l, rel, bound[p])
				}
			}
		}
	}
}

// TestStokesTranslationSymmetric answers whether the Stokeslet's (t, s) and
// (s, t) translation spectra are bitwise equal: they are, for every V-list
// direction, so six of the nine component spectra per direction would do.
// With a unit density on component s, Stokes.Eval computes component t as
// δ_ts/r + d_t·d_s/r³ with d_t·d_s commuted, the same bits either way, and
// the forward transform of equal grids is equal.
func TestStokesTranslationSymmetric(t *testing.T) {
	ops := NewOperators(kernel.Stokes{}, 4, 1e-9)
	f := newFFTM2LCache(ops, NewTranslationCache(1<<30))
	panel := 2 * f.HalfLen()
	for k := range len(vTable{}) {
		dx, dy, dz := k/49-3, k/7%7-3, k%7-3
		if maxAbs3(dx, dy, dz) <= 1 {
			continue
		}
		spec := f.TranslationAt(0, dx, dy, dz)
		for tc := 0; tc < 3; tc++ {
			for sc := tc + 1; sc < 3; sc++ {
				a, b := spec[(tc*3+sc)*panel:][:panel], spec[(sc*3+tc)*panel:][:panel]
				for i := range a {
					if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
						t.Fatalf("direction (%d,%d,%d): spectra (%d,%d) and (%d,%d) differ at %d: %v vs %v",
							dx, dy, dz, tc, sc, sc, tc, i, a[i], b[i])
					}
				}
			}
		}
	}
}
