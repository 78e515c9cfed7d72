package linalg

import (
	"math"
)

// SVD holds a thin singular value decomposition A = U * diag(S) * Vᵀ with
// U (m×k), S (k), V (n×k), k = min(m, n). Singular values are sorted in
// decreasing order.
type SVD struct {
	U *Mat
	S []float64
	V *Mat
}

// ComputeSVD computes the thin SVD of a with cyclic one-sided Jacobi
// rotations: sweep the column pairs (p, q) in row order, rotate each pair
// whose columns are not yet orthogonal, stop after a sweep that rotates
// nothing.
//
// The sweep is fused. Column norms α = ‖w_p‖², β = ‖w_q‖² are kept in an
// array and refreshed only when a rotation rewrites the column; the cross
// term γ = w_p·w_q of pair (p, q+1) is accumulated by the loop that rotates
// pair (p, q), since it is the product of the just-rotated w_p with the
// untouched w_{q+1}. A pair therefore costs one pass over its two columns
// instead of three dot products and a rotation. Columns of the working copy
// and of V live in one slab each. Every accumulator sums in Dot's element
// order with Dot's acc += x*y shape, and the cached norms equal what Dot
// would return on the current column, so each rotation sees the same α, β, γ
// as the textbook loop: U, S and V are bit-identical to it (the tests keep
// that loop as the oracle).
func ComputeSVD(a *Mat) *SVD {
	m, n := a.Rows, a.Cols
	if m < n {
		// Work on the transpose and swap the factors: Aᵀ = U Σ Vᵀ implies
		// A = V Σ Uᵀ.
		st := ComputeSVD(a.T())
		return &SVD{U: st.V, S: st.S, V: st.U}
	}
	// Column-major working copy of A and the accumulated right rotations:
	// column j is w[j*m:(j+1)*m] and v[j*n:(j+1)*n].
	w := make([]float64, n*m)
	for i := 0; i < m; i++ {
		for j, x := range a.Row(i) {
			w[j*m+i] = x
		}
	}
	v := make([]float64, n*n)
	for j := 0; j < n; j++ {
		v[j*n+j] = 1
	}
	wcol := func(j int) []float64 { return w[j*m : (j+1)*m : (j+1)*m] }
	vcol := func(j int) []float64 { return v[j*n : (j+1)*n : (j+1)*n] }
	// nrm[j] is Dot(w_j, w_j) of the current column j.
	nrm := make([]float64, n)
	for j := range nrm {
		nrm[j] = Dot(wcol(j), wcol(j))
	}

	const eps = 1e-15
	const maxSweeps = 60
	for sweep := 0; sweep < maxSweeps; sweep++ {
		off := 0.0
		for p := 0; p < n-1; p++ {
			wp := wcol(p)
			gamma := Dot(wp, wcol(p+1))
			for q := p + 1; q < n; q++ {
				// next is w_{q+1}, whose cross term with w_p the next pair
				// needs; nil at the end of the row.
				var next []float64
				if q+1 < n {
					next = wcol(q + 1)
				}
				alpha, beta := nrm[p], nrm[q]
				if math.Abs(gamma) <= eps*math.Sqrt(alpha*beta) || gamma == 0 {
					if next != nil {
						gamma = Dot(wp, next)
					}
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
				nrm[p], nrm[q], gamma = rotateDots(wp, wcol(q), next, c, s)
				rotate(vcol(p), vcol(q), c, s)
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
		svs[j] = colSV{Norm2Vec(wcol(j)), j}
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

	out := &SVD{U: NewMat(m, n), S: make([]float64, n), V: NewMat(n, n)}
	for k := 0; k < n; k++ {
		src := svs[k].idx
		sigma := svs[k].sigma
		out.S[k] = sigma
		inv := 0.0
		if sigma > 0 {
			inv = 1 / sigma
		}
		for i, x := range wcol(src) {
			out.U.Set(i, k, x*inv)
		}
		for i, x := range vcol(src) {
			out.V.Set(i, k, x)
		}
	}
	return out
}

// rotate applies the plane rotation [c -s; s c] to the column pair (x, y):
// x' = c*x - s*y, y' = s*x + c*y.
func rotate(x, y []float64, c, s float64) {
	y = y[:len(x)]
	for i := range x {
		xi, yi := x[i], y[i]
		x[i] = c*xi - s*yi
		y[i] = s*xi + c*yi
	}
}

// rotateDots is rotate on (x, y) fused with the dot products that follow
// it: it returns Dot(x', x'), Dot(y', y') and, when z is not nil,
// Dot(x', z). Each accumulator adds in Dot's order and shape, so the results
// are bit-identical to calling Dot after rotate.
func rotateDots(x, y, z []float64, c, s float64) (xx, yy, xz float64) {
	y = y[:len(x)]
	if z == nil {
		for i := range x {
			xi, yi := x[i], y[i]
			xn := c*xi - s*yi
			yn := s*xi + c*yi
			x[i], y[i] = xn, yn
			xx += xn * xn
			yy += yn * yn
		}
		return xx, yy, 0
	}
	z = z[:len(x)]
	for i := range x {
		xi, yi := x[i], y[i]
		xn := c*xi - s*yi
		yn := s*xi + c*yi
		x[i], y[i] = xn, yn
		xx += xn * xn
		yy += yn * yn
		xz += xn * z[i]
	}
	return xx, yy, xz
}

// PinvTikhonov returns the Tikhonov-regularized pseudo-inverse
// A⁺ = V diag(σᵢ/(σᵢ²+α²)) Uᵀ with α = tol·σ_max. This is the
// regularization the kernel-independent FMM uses when inverting the
// (mildly ill-conditioned) check-to-equivalent surface operators.
func PinvTikhonov(a *Mat, tol float64) *Mat {
	return pinv(a, tol, func(v, sigma, ref float64) float64 {
		return v * (sigma / (sigma*sigma + ref*ref))
	})
}

// PinvTruncated returns the truncated-SVD pseudo-inverse: singular values
// below tol·σ_max are discarded, the rest inverted exactly.
func PinvTruncated(a *Mat, tol float64) *Mat {
	return pinv(a, tol, func(v, sigma, ref float64) float64 {
		if sigma <= ref || sigma == 0 {
			return 0
		}
		return v / sigma
	})
}

// pinv assembles a pseudo-inverse V·diag·Uᵀ of a from its SVD, as
// (n×k)·(k×m): entry (i, l) of the left factor is coef(V[i][l], σ_l,
// tol·σ_max), and a zero coefficient skips its row update.
func pinv(a *Mat, tol float64, coef func(v, sigma, ref float64) float64) *Mat {
	svd := ComputeSVD(a)
	var ref float64
	if len(svd.S) > 0 {
		ref = tol * svd.S[0]
	}
	n, m := a.Cols, a.Rows
	out := NewMat(n, m)
	for i := 0; i < n; i++ {
		orow := out.Row(i)
		for l, sigma := range svd.S {
			vil := coef(svd.V.At(i, l), sigma, ref)
			if vil == 0 {
				continue
			}
			for j := 0; j < m; j++ {
				orow[j] += vil * svd.U.At(j, l)
			}
		}
	}
	return out
}
