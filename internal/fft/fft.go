// Package fft implements discrete Fourier transforms of any length as one
// mixed-radix Stockham autosort body — hard-coded radix-4/2/3/5 butterflies
// and a generic O(r²) butterfly for every other prime factor — on
// split-complex data (separate re and im float64 slices), plus real-input
// 3-D transforms built from batched 1-D passes.
//
// The FMM uses it to diagonalize the V-list (multipole-to-local) translation:
// the map from upward-equivalent densities to downward-check potentials on
// regular surface grids is a 3-D convolution, so it becomes a pointwise
// (Hadamard) product in frequency space.
package fft

import "math"

// Plan transforms sequences of a fixed length n = r₁·r₂·…·r_k, one Stockham
// stage per factor. It holds only the factorization and the root table, both
// immutable, so a Plan is safe for concurrent use; scratch comes from the
// caller.
type Plan struct {
	n     int
	radix []int        // stage radices: 4s, then 2, 3s, 5s, then larger primes
	w     []complex128 // w[t] = e^{-2πi t/n}, t < n
}

// NewPlan creates a transform plan for length n (n >= 1).
func NewPlan(n int) *Plan {
	if n < 1 {
		panic("fft: length must be >= 1")
	}
	p := &Plan{n: n, w: make([]complex128, n)}
	for t := range p.w {
		sin, cos := math.Sincos(-2 * math.Pi * float64(t) / float64(n))
		p.w[t] = complex(cos, sin)
	}
	m := n
	for _, r := range []int{4, 2, 3, 5} {
		for ; m%r == 0; m /= r {
			p.radix = append(p.radix, r)
		}
	}
	for r := 7; m > 1; r += 2 {
		for ; m%r == 0; m /= r {
			p.radix = append(p.radix, r)
		}
	}
	return p
}

// Len returns the transform length.
func (p *Plan) Len() int { return p.n }

// Forward replaces each of batch interleaved length-n sequences by its DFT
// X[k] = Σ_j x[j] e^{-2πi jk/n}. Element j of sequence q is
// re[q+batch·j] + i·im[q+batch·j], so batch = 1 is one contiguous sequence
// and batch = b transforms the leading axis of an n×b row-major array along
// all b columns at once, with no gather or scatter. re and im have length
// n·batch; work is scratch of at least twice that.
//
// Stage i reads the previous stage's output and writes the other of
// {(re, im), work}; the autosort indexing leaves the result in natural
// order, copied back only when the stage count is odd.
//
//fmm:hotpath
func (p *Plan) Forward(re, im, work []float64, batch int) {
	t := p.n * batch
	if len(re) != t || len(im) != t || len(work) < 2*t {
		panic("fft: Forward length mismatch")
	}
	xr, xi, yr, yi := re, im, work[:t], work[t:2*t]
	m, s := p.n, batch
	for _, r := range p.radix {
		m /= r
		l := s / batch // root-table step of this stage's twiddles, n/(r·m)
		switch r {
		case 4:
			stage4(yr, yi, xr, xi, m, s, l, p.w)
		case 2:
			stage2(yr, yi, xr, xi, m, s, l, p.w)
		case 3:
			stage3(yr, yi, xr, xi, m, s, l, p.w)
		case 5:
			stage5(yr, yi, xr, xi, m, s, l, p.w)
		default:
			stageN(yr, yi, xr, xi, r, m, s, l, p.w)
		}
		xr, xi, yr, yi = yr, yi, xr, xi
		s *= r
	}
	if len(p.radix)%2 == 1 {
		copy(re, xr)
		copy(im, xi)
	}
}

// Backward is the unnormalized inverse x[j] = Σ_k X[k] e^{+2πi jk/n} (divide
// by n for the inverse DFT). Swapping real and imaginary parts conjugates
// the transform, so it is Forward with the two slices exchanged: the inverse
// needs no second set of butterflies or twiddles.
//
//fmm:hotpath
func (p *Plan) Backward(re, im, work []float64, batch int) {
	p.Forward(im, re, work, batch)
}

// A radix-r stage takes sequences of current length r·m at stride s (batch
// times the product of the earlier radices) from x to y: butterfly (p, q),
// p < m, q < s, reads x[q+s·(p+k·m)], k < r, and writes y[q+s·(r·p+j)] =
// w_{rm}^{jp} · Σ_k x_k ω_r^{jk}. The twiddle w_{rm}^{jp} is w[j·p·l] with
// l = n/(r·m); it is 1 on the p = 0 butterflies, which include the whole of
// the last stage (m = 1).

// ld and st move element k between split storage and a complex value.
func ld(r, i []float64, k int) complex128    { return complex(r[k], i[k]) }
func st(r, i []float64, k int, z complex128) { r[k], i[k] = real(z), imag(z) }

// mulNegI returns −i·z, the quarter turn of the forward transform.
func mulNegI(z complex128) complex128 { return complex(imag(z), -real(z)) }

// scale returns c·z for real c (two multiplies, where complex(c, 0)·z costs
// four and two adds).
func scale(c float64, z complex128) complex128 { return complex(c*real(z), c*imag(z)) }

//fmm:hotpath
func stage2(yr, yi, xr, xi []float64, m, s, l int, w []complex128) {
	for p := 0; p < m; p++ {
		w1 := w[p*l]
		i, o := s*p, 2*s*p
		for q := 0; q < s; q++ {
			a0, a1 := ld(xr, xi, i+q), ld(xr, xi, i+q+s*m)
			b1 := a0 - a1
			if p > 0 {
				b1 *= w1
			}
			st(yr, yi, o+q, a0+a1)
			st(yr, yi, o+q+s, b1)
		}
	}
}

//fmm:hotpath
func stage3(yr, yi, xr, xi []float64, m, s, l int, w []complex128) {
	const sin3 = 0.86602540378443864676372317075294 // sin(2π/3)
	sm := s * m
	for p := 0; p < m; p++ {
		w1, w2 := w[p*l], w[2*p*l]
		i, o := s*p, 3*s*p
		for q := 0; q < s; q++ {
			a0, a1, a2 := ld(xr, xi, i+q), ld(xr, xi, i+q+sm), ld(xr, xi, i+q+2*sm)
			t := a1 + a2
			u, v := a0-scale(0.5, t), mulNegI(scale(sin3, a1-a2))
			b1, b2 := u+v, u-v
			if p > 0 {
				b1 *= w1
				b2 *= w2
			}
			st(yr, yi, o+q, a0+t)
			st(yr, yi, o+q+s, b1)
			st(yr, yi, o+q+2*s, b2)
		}
	}
}

//fmm:hotpath
func stage4(yr, yi, xr, xi []float64, m, s, l int, w []complex128) {
	sm := s * m
	for p := 0; p < m; p++ {
		w1, w2, w3 := w[p*l], w[2*p*l], w[3*p*l]
		i, o := s*p, 4*s*p
		for q := 0; q < s; q++ {
			a0, a1 := ld(xr, xi, i+q), ld(xr, xi, i+q+sm)
			a2, a3 := ld(xr, xi, i+q+2*sm), ld(xr, xi, i+q+3*sm)
			t0, t1, t2, t3 := a0+a2, a0-a2, a1+a3, mulNegI(a1-a3)
			b1, b2, b3 := t1+t3, t0-t2, t1-t3
			if p > 0 {
				b1 *= w1
				b2 *= w2
				b3 *= w3
			}
			st(yr, yi, o+q, t0+t2)
			st(yr, yi, o+q+s, b1)
			st(yr, yi, o+q+2*s, b2)
			st(yr, yi, o+q+3*s, b3)
		}
	}
}

//fmm:hotpath
func stage5(yr, yi, xr, xi []float64, m, s, l int, w []complex128) {
	const (
		cos1 = 0.30901699437494742410229341718282  // cos(2π/5)
		cos2 = -0.80901699437494742410229341718282 // cos(4π/5)
		sin1 = 0.95105651629515357211643933337938  // sin(2π/5)
		sin2 = 0.58778525229247312916870595463907  // sin(4π/5)
	)
	sm := s * m
	for p := 0; p < m; p++ {
		w1, w2, w3, w4 := w[p*l], w[2*p*l], w[3*p*l], w[4*p*l]
		i, o := s*p, 5*s*p
		for q := 0; q < s; q++ {
			a0, a1, a2 := ld(xr, xi, i+q), ld(xr, xi, i+q+sm), ld(xr, xi, i+q+2*sm)
			a3, a4 := ld(xr, xi, i+q+3*sm), ld(xr, xi, i+q+4*sm)
			t1, t2, t3, t4 := a1+a4, a2+a3, a1-a4, a2-a3
			c1 := a0 + scale(cos1, t1) + scale(cos2, t2)
			c2 := a0 + scale(cos2, t1) + scale(cos1, t2)
			d1 := mulNegI(scale(sin1, t3) + scale(sin2, t4))
			d2 := mulNegI(scale(sin2, t3) - scale(sin1, t4))
			b1, b2, b3, b4 := c1+d1, c2+d2, c2-d2, c1-d1
			if p > 0 {
				b1 *= w1
				b2 *= w2
				b3 *= w3
				b4 *= w4
			}
			st(yr, yi, o+q, a0+t1+t2)
			st(yr, yi, o+q+s, b1)
			st(yr, yi, o+q+2*s, b2)
			st(yr, yi, o+q+3*s, b3)
			st(yr, yi, o+q+4*s, b4)
		}
	}
}

// stageN is the butterfly for any other prime radix r, as r dot products
// with the r-th roots of unity ω_r^t = w[t·n/r]. It is what keeps lengths
// like 14, 22 and 26 (surface orders 7, 11, 13) on the same body.
//
//fmm:hotpath
func stageN(yr, yi, xr, xi []float64, r, m, s, l int, w []complex128) {
	sm, lr := s*m, len(w)/r
	for p := 0; p < m; p++ {
		i, o := s*p, r*s*p
		for q := 0; q < s; q++ {
			for j := 0; j < r; j++ {
				b := ld(xr, xi, i+q)
				for k, t := 1, j; k < r; k++ {
					b += ld(xr, xi, i+q+k*sm) * w[t*lr]
					if t += j; t >= r {
						t -= r
					}
				}
				if p > 0 {
					b *= w[j*p*l]
				}
				st(yr, yi, o+q+j*s, b)
			}
		}
	}
}
