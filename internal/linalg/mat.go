// Package linalg provides the small dense linear algebra kernels that the
// kernel-independent FMM needs to build its translation operators: row-major
// matrices, matrix-vector and matrix-matrix products, a one-sided Jacobi SVD,
// and Tikhonov-regularized pseudo-inverses — and to apply them: the
// four-row packed form (Packed) whose matrix-vector product runs on an AVX2
// kernel on amd64 and rounds exactly as the row loop does.
//
// The matrices are a few hundred rows and columns, but their SVDs are most
// of a solver's set-up, so the Jacobi sweep is fused: one pass over a
// column pair per rotation instead of three dot products and a rotation
// (see ComputeSVD). It sums in exactly the order and expression shape of
// the textbook loop, which the tests keep as the oracle, so every factor is
// bit-identical to it and no result downstream moves.
package linalg

import (
	"fmt"
	"math"
)

// Mat is a dense row-major matrix.
type Mat struct {
	Rows, Cols int
	Data       []float64 // len == Rows*Cols, Data[i*Cols+j] is element (i,j)
}

// NewMat returns a zero-initialized r-by-c matrix.
func NewMat(r, c int) *Mat {
	if r < 0 || c < 0 {
		panic(fmt.Sprintf("linalg: invalid dimensions %dx%d", r, c))
	}
	return &Mat{Rows: r, Cols: c, Data: make([]float64, r*c)}
}

// FromRows builds a matrix from a slice of equal-length rows.
func FromRows(rows [][]float64) *Mat {
	if len(rows) == 0 {
		return NewMat(0, 0)
	}
	m := NewMat(len(rows), len(rows[0]))
	for i, r := range rows {
		if len(r) != m.Cols {
			panic("linalg: ragged rows")
		}
		copy(m.Row(i), r)
	}
	return m
}

// At returns element (i, j).
func (m *Mat) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set assigns element (i, j).
func (m *Mat) Set(i, j int, v float64) { m.Data[i*m.Cols+j] = v }

// Row returns a mutable view of row i.
func (m *Mat) Row(i int) []float64 { return m.Data[i*m.Cols : (i+1)*m.Cols] }

// T returns the transpose of m as a new matrix.
func (m *Mat) T() *Mat {
	t := NewMat(m.Cols, m.Rows)
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		for j, v := range row {
			t.Data[j*t.Cols+i] = v
		}
	}
	return t
}

// Scale multiplies every element of m by s in place and returns m.
func (m *Mat) Scale(s float64) *Mat {
	for i := range m.Data {
		m.Data[i] *= s
	}
	return m
}

// MulVec computes y = A*x with the row loop (mulRows). y must have length
// A.Rows and x length A.Cols. An operator applied in a hot loop is packed
// instead (Packed), whose kernels round exactly as this loop does.
func (m *Mat) MulVec(y, x []float64) {
	if len(x) != m.Cols || len(y) != m.Rows {
		panic(fmt.Sprintf("linalg: MulVec size mismatch A=%dx%d len(x)=%d len(y)=%d",
			m.Rows, m.Cols, len(x), len(y)))
	}
	mulRows(m.Data, x, y, false)
}

// Mul returns the product A*B as a new matrix.
func (m *Mat) Mul(b *Mat) *Mat {
	if m.Cols != b.Rows {
		panic(fmt.Sprintf("linalg: Mul size mismatch %dx%d * %dx%d", m.Rows, m.Cols, b.Rows, b.Cols))
	}
	out := NewMat(m.Rows, b.Cols)
	for i := 0; i < m.Rows; i++ {
		arow := m.Row(i)
		orow := out.Row(i)
		for k, aik := range arow {
			if aik == 0 {
				continue
			}
			brow := b.Row(k)
			for j, bkj := range brow {
				orow[j] += aik * bkj
			}
		}
	}
	return out
}

// Add computes m += b in place and returns m.
func (m *Mat) Add(b *Mat) *Mat {
	if m.Rows != b.Rows || m.Cols != b.Cols {
		panic("linalg: Add size mismatch")
	}
	for i := range m.Data {
		m.Data[i] += b.Data[i]
	}
	return m
}

// Norm2Vec returns the Euclidean norm of x.
func Norm2Vec(x []float64) float64 {
	var s float64
	for _, v := range x {
		s += v * v
	}
	return math.Sqrt(s)
}

// Dot returns the inner product of x and y.
func Dot(x, y []float64) float64 {
	if len(x) != len(y) {
		panic("linalg: Dot length mismatch")
	}
	var s float64
	for i, v := range x {
		s += v * y[i]
	}
	return s
}
