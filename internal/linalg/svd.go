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

// ComputeSVD computes the thin SVD of a using one-sided Jacobi rotations.
// One-sided Jacobi is slow (O(n³) per sweep) but simple and accurate, which
// is the right trade-off for the small per-level operator matrices the FMM
// precomputes once.
func ComputeSVD(a *Mat) *SVD {
	m, n := a.Rows, a.Cols
	if m < n {
		// Work on the transpose and swap the factors: Aᵀ = U Σ Vᵀ implies
		// A = V Σ Uᵀ.
		st := ComputeSVD(a.T())
		return &SVD{U: st.V, S: st.S, V: st.U}
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
				alpha := Dot(w[p], w[p])
				beta := Dot(w[q], w[q])
				gamma := Dot(w[p], w[q])
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
				rotate(w[p], w[q], c, s)
				rotate(v[p], v[q], c, s)
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
		svs[j] = colSV{Norm2Vec(w[j]), j}
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
		for i := 0; i < m; i++ {
			out.U.Set(i, k, w[src][i]*inv)
		}
		for i := 0; i < n; i++ {
			out.V.Set(i, k, v[src][i])
		}
	}
	return out
}

// rotate applies the plane rotation [c -s; s c] to the column pair (x, y):
// x' = c*x - s*y, y' = s*x + c*y.
func rotate(x, y []float64, c, s float64) {
	for i := range x {
		xi, yi := x[i], y[i]
		x[i] = c*xi - s*yi
		y[i] = s*xi + c*yi
	}
}

// PinvTikhonov returns the Tikhonov-regularized pseudo-inverse
// A⁺ = V diag(σᵢ/(σᵢ²+α²)) Uᵀ with α = tol·σ_max. This is the
// regularization the kernel-independent FMM uses when inverting the
// (mildly ill-conditioned) check-to-equivalent surface operators.
func PinvTikhonov(a *Mat, tol float64) *Mat {
	svd := ComputeSVD(a)
	k := len(svd.S)
	var alpha float64
	if k > 0 {
		alpha = tol * svd.S[0]
	}
	// B = V * diag(filter) * Uᵀ, built as (n×k)·(k×m).
	n, m := a.Cols, a.Rows
	out := NewMat(n, m)
	for i := 0; i < n; i++ {
		orow := out.Row(i)
		for l := 0; l < k; l++ {
			sigma := svd.S[l]
			f := sigma / (sigma*sigma + alpha*alpha)
			vil := svd.V.At(i, l) * f
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

// PinvTruncated returns the truncated-SVD pseudo-inverse: singular values
// below tol·σ_max are discarded, the rest inverted exactly.
func PinvTruncated(a *Mat, tol float64) *Mat {
	svd := ComputeSVD(a)
	k := len(svd.S)
	var cutoff float64
	if k > 0 {
		cutoff = tol * svd.S[0]
	}
	n, m := a.Cols, a.Rows
	out := NewMat(n, m)
	for i := 0; i < n; i++ {
		orow := out.Row(i)
		for l := 0; l < k; l++ {
			sigma := svd.S[l]
			if sigma <= cutoff || sigma == 0 {
				continue
			}
			vil := svd.V.At(i, l) / sigma
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
