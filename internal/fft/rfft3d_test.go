package fft

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// rSizes covers single-stage (2, 3, 4, 5), two-stage (8, 12) and degenerate
// length-1 axes, odd and even (an odd Ny leaves each slab's last z row
// without a partner).
var rSizes = []int{1, 2, 3, 4, 5, 8, 12}

// full is a support extent no smaller than any tested axis: the unpruned
// transform.
const full = 1 << 20

// padEdges are the padded grid edges 2p of surface orders 2…8, each used
// with support e = p: e is odd for 6, 10, 14, so a supported row's partner
// falls outside the support.
var padEdges = []int{4, 6, 8, 10, 12, 14, 16}

func randGrid(rng *rand.Rand, n int) []float64 {
	g := make([]float64, n)
	for i := range g {
		g[i] = rng.NormFloat64()
	}
	return g
}

// randCorner returns an nx×ny×nz grid that is random on [0,e)³ and zero
// elsewhere.
func randCorner(rng *rand.Rand, nx, ny, nz, e int) []float64 {
	g := make([]float64, nx*ny*nz)
	for ix := 0; ix < min(e, nx); ix++ {
		for iy := 0; iy < min(e, ny); iy++ {
			for iz := 0; iz < min(e, nz); iz++ {
				g[(ix*ny+iy)*nz+iz] = rng.NormFloat64()
			}
		}
	}
	return g
}

func halfSpectrum(rp *PlanR3D, src []float64, e int) (re, im []float64) {
	re, im = make([]float64, rp.HalfLen()), make([]float64, rp.HalfLen())
	rp.RForward(src, re, im, e)
	return re, im
}

// TestRForwardMatchesPlan3D: the half spectrum must agree with the full
// complex transform of the same real grid restricted to kz < Nz/2+1, for
// every axis-size combination.
func TestRForwardMatchesPlan3D(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, nx := range rSizes {
		for _, ny := range rSizes {
			for _, nz := range rSizes {
				rp := NewPlanR3D(nx, ny, nz)
				cp := NewPlan3D(nx, ny, nz)
				src := randGrid(rng, rp.Size())
				re, im := halfSpectrum(rp, src, full)

				want := make([]complex128, cp.Size())
				for i, v := range src {
					want[i] = complex(v, 0)
				}
				cp.Forward(want)

				hz := rp.Hz
				for ix := 0; ix < nx; ix++ {
					for iy := 0; iy < ny; iy++ {
						for kz := 0; kz < hz; kz++ {
							w := want[(ix*ny+iy)*nz+kz]
							h := (ix*ny+iy)*hz + kz
							if d := math.Hypot(re[h]-real(w), im[h]-imag(w)); d > 1e-12 {
								t.Fatalf("%dx%dx%d: spectrum (%d,%d,%d) differs by %g", nx, ny, nz, ix, iy, kz, d)
							}
						}
					}
				}
			}
		}
	}
}

// TestRForwardHermitianSymmetry: the redundant half that RForward does not
// store must be recoverable as X[-k] = conj(X[k]); check it against the full
// transform.
func TestRForwardHermitianSymmetry(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for _, n := range []int{4, 5, 8} {
		cp := NewPlan3D(n, n, n)
		src := randGrid(rng, cp.Size())
		spec := make([]complex128, cp.Size())
		for i, v := range src {
			spec[i] = complex(v, 0)
		}
		cp.Forward(spec)
		for ix := 0; ix < n; ix++ {
			for iy := 0; iy < n; iy++ {
				for iz := 0; iz < n; iz++ {
					a := spec[(ix*n+iy)*n+iz]
					b := spec[(((n-ix)%n)*n+(n-iy)%n)*n+(n-iz)%n]
					if d := math.Hypot(real(a)-real(b), imag(a)+imag(b)); d > 1e-12 {
						t.Fatalf("n=%d: Hermitian symmetry violated at (%d,%d,%d): %g", n, ix, iy, iz, d)
					}
				}
			}
		}
	}
}

// TestRInverseRoundTrip: RInverse(RForward(x)) must reproduce x for every
// axis-size combination.
func TestRInverseRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for _, nx := range rSizes {
		for _, ny := range rSizes {
			for _, nz := range rSizes {
				rp := NewPlanR3D(nx, ny, nz)
				src := randGrid(rng, rp.Size())
				re, im := halfSpectrum(rp, src, full)
				dst := make([]float64, rp.Size())
				rp.RInverse(re, im, dst, full)
				for i := range src {
					if math.Abs(dst[i]-src[i]) > 1e-13*(1+math.Abs(src[i])) {
						t.Fatalf("%dx%dx%d: round trip differs at %d: %v vs %v", nx, ny, nz, i, dst[i], src[i])
					}
				}
			}
		}
	}
}

// TestRConvolutionMatchesComplex: a circular convolution computed on half
// spectra (forward, pointwise product, inverse) must match Plan3D.Convolve3D
// — the exact operation the FFT V-list translation performs, at its extents:
// a density padded into [0,e)³, a kernel grid that fills the lattice, and a
// result read on [0,e)³.
func TestRConvolutionMatchesComplex(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	for _, n := range padEdges {
		e := n / 2
		rp := NewPlanR3D(n, n, n)
		cp := NewPlan3D(n, n, n)
		a := randCorner(rng, n, n, n, e)
		b := randGrid(rng, rp.Size())

		ca := make([]complex128, len(a))
		cb := make([]complex128, len(b))
		for i := range a {
			ca[i] = complex(a[i], 0)
			cb[i] = complex(b[i], 0)
		}
		want := cp.Convolve3D(ca, cb)

		are, aim := halfSpectrum(rp, a, e)
		bre, bim := halfSpectrum(rp, b, n)
		hl := rp.HalfLen()
		pre, pim := make([]float64, hl), make([]float64, hl)
		for i := 0; i < hl; i++ {
			pre[i] = are[i]*bre[i] - aim[i]*bim[i]
			pim[i] = are[i]*bim[i] + aim[i]*bre[i]
		}
		got := make([]float64, rp.Size())
		rp.RInverse(pre, pim, got, e)
		for ix := 0; ix < e; ix++ {
			for iy := 0; iy < e; iy++ {
				for iz := 0; iz < e; iz++ {
					i := (ix*n+iy)*n + iz
					if math.Abs(got[i]-real(want[i])) > 1e-12*(1+math.Abs(real(want[i]))) {
						t.Fatalf("n=%d: convolution differs at %d: %v vs %v", n, i, got[i], real(want[i]))
					}
				}
			}
		}
	}
}

// paddedDims are the grids of the pruning tests: the cubes the FMM uses and
// two boxes whose axes clip the extent differently.
func paddedDims() (dims [][4]int) {
	for _, n := range padEdges {
		dims = append(dims, [4]int{n, n, n, n / 2})
	}
	return append(dims, [4]int{3, 8, 5, 4}, [4]int{12, 5, 2, 3})
}

// TestPaddedForwardMatchesFull: on a grid that is zero outside [0,e)³ the
// pruned forward transform equals the full one on every element, with ==,
// not a tolerance: the rows and columns it skips are exact zeros in the
// full transform too, and the rest is the same arithmetic. An extent past
// the grid is the full transform.
func TestPaddedForwardMatchesFull(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	for _, d := range paddedDims() {
		nx, ny, nz, e := d[0], d[1], d[2], d[3]
		rp := NewPlanR3D(nx, ny, nz)
		src := randCorner(rng, nx, ny, nz, e)
		wre, wim := halfSpectrum(rp, src, full)
		for _, ext := range []int{e, max(nx, ny, nz)} {
			// Stale values in the output panels must not survive.
			re, im := randGrid(rng, rp.HalfLen()), randGrid(rng, rp.HalfLen())
			rp.RForward(src, re, im, ext)
			for i := range wre {
				if re[i] != wre[i] || im[i] != wim[i] {
					t.Fatalf("%v e=%d: spectrum[%d] = (%v, %v), full transform (%v, %v)", d, ext, i, re[i], im[i], wre[i], wim[i])
				}
			}
		}
	}
}

// TestPaddedForwardIgnoresOutside: RForward reads src only on [0,e)³ — what
// lies outside is taken as zero, not required to be.
func TestPaddedForwardIgnoresOutside(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	for _, d := range paddedDims() {
		nx, ny, nz, e := d[0], d[1], d[2], d[3]
		rp := NewPlanR3D(nx, ny, nz)
		src := randCorner(rng, nx, ny, nz, e)
		wre, wim := halfSpectrum(rp, src, e)
		dirty := randGrid(rng, rp.Size())
		for ix := 0; ix < min(e, nx); ix++ {
			for iy := 0; iy < min(e, ny); iy++ {
				r := (ix*ny + iy) * nz
				copy(dirty[r:r+min(e, nz)], src[r:])
			}
		}
		re, im := halfSpectrum(rp, dirty, e)
		for i := range wre {
			if re[i] != wre[i] || im[i] != wim[i] {
				t.Fatalf("%v: spectrum[%d] depends on src outside the support", d, i)
			}
		}
	}
}

// TestPaddedInverseMatchesFull pins RInverse's contract on dst: on [0,e)³
// it equals the full inverse with == (the partner of a supported row rides
// along in the packed z transform even when it lies outside the support, so
// the arithmetic is that of the full transform), and every element outside
// [0,e)³ is left untouched — not zeroed, not garbage. FFTM2L.ExtractCheck
// relies on the first half and reads nothing outside the corner.
func TestPaddedInverseMatchesFull(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for _, d := range paddedDims() {
		nx, ny, nz, e := d[0], d[1], d[2], d[3]
		rp := NewPlanR3D(nx, ny, nz)
		// A Hermitian-consistent spectrum of a grid that fills the lattice,
		// as a Hadamard product with a translation spectrum is.
		sre, sim := halfSpectrum(rp, randGrid(rng, rp.Size()), full)
		want := make([]float64, rp.Size())
		rp.RInverse(append([]float64(nil), sre...), append([]float64(nil), sim...), want, full)

		const sentinel = -12345.678
		got := make([]float64, rp.Size())
		for i := range got {
			got[i] = sentinel
		}
		rp.RInverse(sre, sim, got, e)
		for ix := 0; ix < nx; ix++ {
			for iy := 0; iy < ny; iy++ {
				for iz := 0; iz < nz; iz++ {
					i := (ix*ny+iy)*nz + iz
					w := want[i]
					if ix >= e || iy >= e || iz >= e {
						w = sentinel
					}
					if got[i] != w {
						t.Fatalf("%v: dst(%d,%d,%d) = %v, want %v", d, ix, iy, iz, got[i], w)
					}
				}
			}
		}
	}
}

// TestPaddedTransformsDoNotAllocate: a warm transform takes its scratch from
// the plan's pool.
func TestPaddedTransformsDoNotAllocate(t *testing.T) {
	rp := NewPlanR3D(12, 12, 12)
	src := randCorner(rand.New(rand.NewSource(18)), 12, 12, 12, 6)
	re, im := halfSpectrum(rp, src, 6)
	dst := make([]float64, rp.Size())
	if a := testing.AllocsPerRun(50, func() { rp.RForward(src, re, im, 6) }); a != 0 {
		t.Errorf("warm padded RForward allocates %v times per call", a)
	}
	if a := testing.AllocsPerRun(50, func() { rp.RInverse(re, im, dst, 6) }); a != 0 {
		t.Errorf("warm padded RInverse allocates %v times per call", a)
	}
}

// BenchmarkRPadded times the two transforms of a V-list translation at the
// padded edges of surface orders 4, 5, 6 and 8 (support e = n/2).
func BenchmarkRPadded(b *testing.B) {
	bench := func(n, e int, inverse bool) func(*testing.B) {
		return func(b *testing.B) {
			rp := NewPlanR3D(n, n, n)
			rng := rand.New(rand.NewSource(1))
			src := randCorner(rng, n, n, n, e)
			re, im := halfSpectrum(rp, src, e)
			sre, sim := append([]float64(nil), re...), append([]float64(nil), im...)
			dst := make([]float64, rp.Size())
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if inverse {
					// RInverse consumes its spectrum; restoring it is 2 % of
					// the transform.
					copy(re, sre)
					copy(im, sim)
					rp.RInverse(re, im, dst, e)
				} else {
					rp.RForward(src, re, im, e)
				}
			}
		}
	}
	for _, n := range []int{8, 10, 12, 16} {
		b.Run(fmt.Sprintf("forward/n=%d", n), bench(n, n/2, false))
		b.Run(fmt.Sprintf("inverse/n=%d", n), bench(n, n/2, true))
	}
}

// BenchmarkRForward12 is the full 12³ forward transform of a dense grid, as
// a translation spectrum takes at order 6.
func BenchmarkRForward12(b *testing.B) {
	rp := NewPlanR3D(12, 12, 12)
	src := randGrid(rand.New(rand.NewSource(1)), rp.Size())
	re := make([]float64, rp.HalfLen())
	im := make([]float64, rp.HalfLen())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rp.RForward(src, re, im, 12)
	}
}
