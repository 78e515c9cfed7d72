package fft

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
)

// maxLen bounds the exhaustive 1-D tests: every n in 1…64 covers each padded
// grid edge 2p for surface orders p = 2…16 (including the radix-5 edges 10
// and 20 and the generic-radix edges 14, 22, 26), every prime up to 61 as a
// single generic stage, the powers of two, and stage counts from 0 (n = 1)
// to 3 (n = 24, 32, 48, 64 …), odd ones ending in the copy back.
const maxLen = 64

// naiveDFT is the O(n²) reference transform.
func naiveDFT(x []complex128) []complex128 {
	n := len(x)
	out := make([]complex128, n)
	for k := 0; k < n; k++ {
		var s complex128
		for j := 0; j < n; j++ {
			theta := -2 * math.Pi * float64(j*k%n) / float64(n)
			s += x[j] * cmplx.Exp(complex(0, theta))
		}
		out[k] = s
	}
	return out
}

// naiveIDFT is the reference inverse, by conjugation of naiveDFT.
func naiveIDFT(x []complex128) []complex128 {
	c := make([]complex128, len(x))
	for i, v := range x {
		c[i] = cmplx.Conj(v)
	}
	c = naiveDFT(c)
	for i, v := range c {
		c[i] = cmplx.Conj(v) / complex(float64(len(x)), 0)
	}
	return c
}

func randVec(rng *rand.Rand, n int) []complex128 {
	x := make([]complex128, n)
	for i := range x {
		x[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	return x
}

func maxDiff(a, b []complex128) float64 {
	var mx float64
	for i := range a {
		if d := cmplx.Abs(a[i] - b[i]); d > mx {
			mx = d
		}
	}
	return mx
}

func maxAbs(a []complex128) float64 {
	return maxDiff(a, make([]complex128, len(a)))
}

// forward and inverse run the plan on a copy of x in split form; inverse
// applies the 1/n that Backward leaves to its caller.
func forward(p *Plan, x []complex128) []complex128 { return run(p, x, false) }
func inverse(p *Plan, x []complex128) []complex128 { return run(p, x, true) }

func run(p *Plan, x []complex128, inverse bool) []complex128 {
	n := len(x)
	re, im, work := make([]float64, n), make([]float64, n), make([]float64, 2*n)
	for i, v := range x {
		re[i], im[i] = real(v), imag(v)
	}
	scale := 1.0
	if inverse {
		p.Backward(re, im, work, 1)
		scale = 1 / float64(n)
	} else {
		p.Forward(re, im, work, 1)
	}
	out := make([]complex128, n)
	for i := range out {
		out[i] = complex(scale*re[i], scale*im[i])
	}
	return out
}

// TestMatchesNaive: forward and inverse agree with the O(n²) DFT for every
// length, within 1e-13·n·‖x‖∞.
func TestMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for n := 1; n <= maxLen; n++ {
		p := NewPlan(n)
		x := randVec(rng, n)
		tol := 1e-13 * float64(n) * maxAbs(x)
		if d := maxDiff(forward(p, x), naiveDFT(x)); d > tol {
			t.Errorf("n=%d (radices %v): forward differs from naive DFT by %g > %g", n, p.radix, d, tol)
		}
		if d := maxDiff(inverse(p, x), naiveIDFT(x)); d > tol {
			t.Errorf("n=%d (radices %v): inverse differs from naive DFT by %g > %g", n, p.radix, d, tol)
		}
	}
}

func TestInverseRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for n := 1; n <= maxLen; n++ {
		p := NewPlan(n)
		x := randVec(rng, n)
		if d := maxDiff(x, inverse(p, forward(p, x))); d > 1e-13*float64(n)*maxAbs(x) {
			t.Errorf("n=%d: roundtrip diff %g", n, d)
		}
	}
}

func TestForwardImpulseIsFlat(t *testing.T) {
	for n := 1; n <= maxLen; n++ {
		x := make([]complex128, n)
		x[0] = 1
		for i, v := range forward(NewPlan(n), x) {
			if cmplx.Abs(v-1) > 1e-14 {
				t.Errorf("n=%d: impulse spectrum[%d]=%v", n, i, v)
			}
		}
	}
}

func TestLinearity(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for n := 1; n <= maxLen; n++ {
		p := NewPlan(n)
		a, b := randVec(rng, n), randVec(rng, n)
		sum := make([]complex128, n)
		for i := range sum {
			sum[i] = 2*a[i] + 3*b[i]
		}
		fa, fb, fs := forward(p, a), forward(p, b), forward(p, sum)
		for i := range fs {
			fs[i] -= 2*fa[i] + 3*fb[i]
		}
		if d := maxAbs(fs); d > 1e-13*float64(n)*maxAbs(sum) {
			t.Errorf("n=%d: linearity violated by %g", n, d)
		}
	}
}

func TestParseval(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	energy := func(x []complex128) (e float64) {
		for _, v := range x {
			e += real(v)*real(v) + imag(v)*imag(v)
		}
		return e
	}
	for n := 1; n <= maxLen; n++ {
		x := randVec(rng, n)
		et, ef := energy(x), energy(forward(NewPlan(n), x))
		if math.Abs(ef/float64(n)-et) > 1e-13*float64(n)*et {
			t.Errorf("n=%d: Parseval: %g vs %g", n, ef/float64(n), et)
		}
	}
}

// TestBatchMatchesSingle: a batched call over the columns of an n×b array
// performs, per column, exactly the arithmetic of a batch-1 call — the
// property that lets PlanR3D run its x and y passes without gathering rows.
func TestBatchMatchesSingle(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for n := 1; n <= maxLen; n++ {
		p := NewPlan(n)
		for _, b := range []int{2, 7} {
			re, im, work := randGrid(rng, n*b), randGrid(rng, n*b), make([]float64, 2*n*b)
			cr, ci := make([]float64, n), make([]float64, n)
			want := make([][2][]float64, b)
			for q := range want {
				for j := 0; j < n; j++ {
					cr[j], ci[j] = re[q+b*j], im[q+b*j]
				}
				p.Forward(cr, ci, work[:2*n], 1)
				want[q] = [2][]float64{append([]float64(nil), cr...), append([]float64(nil), ci...)}
			}
			p.Forward(re, im, work, b)
			for q := range want {
				for j := 0; j < n; j++ {
					if re[q+b*j] != want[q][0][j] || im[q+b*j] != want[q][1][j] {
						t.Fatalf("n=%d batch=%d: column %d element %d differs from the single transform", n, b, q, j)
					}
				}
			}
		}
	}
}

func TestPlanLenAndValidation(t *testing.T) {
	if NewPlan(8).Len() != 8 {
		t.Fatalf("Len wrong")
	}
	defer func() {
		if recover() == nil {
			t.Fatalf("expected panic for n=0")
		}
	}()
	NewPlan(0)
}

func naiveDFT3D(x []complex128, nx, ny, nz int) []complex128 {
	out := make([]complex128, len(x))
	for kx := 0; kx < nx; kx++ {
		for ky := 0; ky < ny; ky++ {
			for kz := 0; kz < nz; kz++ {
				var s complex128
				for jx := 0; jx < nx; jx++ {
					for jy := 0; jy < ny; jy++ {
						for jz := 0; jz < nz; jz++ {
							theta := -2 * math.Pi * (float64(jx*kx)/float64(nx) +
								float64(jy*ky)/float64(ny) + float64(jz*kz)/float64(nz))
							s += x[(jx*ny+jy)*nz+jz] * cmplx.Exp(complex(0, theta))
						}
					}
				}
				out[(kx*ny+ky)*nz+kz] = s
			}
		}
	}
	return out
}

func Test3DMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for _, dims := range [][3]int{{2, 2, 2}, {4, 4, 4}, {3, 4, 5}, {2, 6, 3}} {
		nx, ny, nz := dims[0], dims[1], dims[2]
		x := randVec(rng, nx*ny*nz)
		want := naiveDFT3D(x, nx, ny, nz)
		got := append([]complex128(nil), x...)
		NewPlan3D(nx, ny, nz).Forward(got)
		if d := maxDiff(got, want); d > 1e-12 {
			t.Fatalf("dims %v: diff %g", dims, d)
		}
	}
}

func Test3DRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	p := NewPlan3D(4, 6, 8)
	x := randVec(rng, p.Size())
	y := append([]complex128(nil), x...)
	p.Forward(y)
	p.Inverse(y)
	if d := maxDiff(x, y); d > 1e-13 {
		t.Fatalf("3-D roundtrip diff %g", d)
	}
}

func TestConvolve3DMatchesDirect(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	nx, ny, nz := 4, 4, 4
	p := NewPlan3D(nx, ny, nz)
	a, b := randVec(rng, p.Size()), randVec(rng, p.Size())
	got := p.Convolve3D(a, b)
	// Direct circular convolution.
	want := make([]complex128, p.Size())
	for kx := 0; kx < nx; kx++ {
		for ky := 0; ky < ny; ky++ {
			for kz := 0; kz < nz; kz++ {
				var s complex128
				for jx := 0; jx < nx; jx++ {
					for jy := 0; jy < ny; jy++ {
						for jz := 0; jz < nz; jz++ {
							ax := ((kx-jx)%nx + nx) % nx
							ay := ((ky-jy)%ny + ny) % ny
							az := ((kz-jz)%nz + nz) % nz
							s += a[(jx*ny+jy)*nz+jz] * b[(ax*ny+ay)*nz+az]
						}
					}
				}
				want[(kx*ny+ky)*nz+kz] = s
			}
		}
	}
	if d := maxDiff(got, want); d > 1e-12 {
		t.Fatalf("convolution diff %g", d)
	}
}

func BenchmarkForward64(b *testing.B) {
	p := NewPlan(64)
	rng := rand.New(rand.NewSource(1))
	re, im, work := randGrid(rng, 64), randGrid(rng, 64), make([]float64, 128)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Forward(re, im, work, 1)
	}
}
