package linalg

import "fmt"

// Packed is a matrix stored for the matrix-vector product alone: its rows
// in groups of four, each group column-interleaved so that the four rows'
// entries of one column are adjacent,
//
//	Data[g·4·Cols + 4j + l] = A[4g+l][j]   for 4g+l < Rows−Rows%4,
//
// followed by the last Rows%4 rows in row-major order. One column step of
// a group is then one 4-wide load whose lanes are four rows, which is the
// shape the AVX2 kernel in mulvec_amd64.s reads. The FMM's apply-time
// translation operators are stored only in this form.
type Packed struct {
	Rows, Cols int
	Data       []float64
}

// Pack rearranges m's storage into the packed layout and returns it as a
// Packed. A group's panel occupies exactly the four rows it came from, so
// the rearrangement is in place, through one four-row scratch: the result
// takes over m.Data and m is emptied, so that no operator is ever held in
// both forms.
func Pack(m *Mat) *Packed {
	cols := m.Cols
	p := &Packed{Rows: m.Rows, Cols: cols, Data: m.Data}
	*m = Mat{}
	rows := make([]float64, 4*cols)
	for g := 0; g+4 <= p.Rows; g += 4 {
		panel := p.Data[g*cols : (g+4)*cols]
		copy(rows, panel)
		for l := 0; l < 4; l++ {
			for j, v := range rows[l*cols : (l+1)*cols] {
				panel[4*j+l] = v
			}
		}
	}
	return p
}

// MulVec computes y = A*x. y must have length A.Rows and x length A.Cols.
//
// Every row is summed from +0 over ascending columns, one rounded product
// and one rounded add per term — the rounding of Mat.MulVec — so the
// result is bit-identical to it whichever kernel runs.
func (p *Packed) MulVec(y, x []float64) { p.mulVec(y, x, false) }

// MulVecAdd computes y += A*x: each row's sum, rounded as in MulVec, is
// added to y once.
func (p *Packed) MulVecAdd(y, x []float64) { p.mulVec(y, x, true) }

// mulVec runs the vector kernel over as many four-row groups as it covers,
// the Go panel loop over the rest (all of them on builds or CPUs without
// one), and the row loop over the row-major tail.
func (p *Packed) mulVec(y, x []float64, add bool) {
	if len(x) != p.Cols || len(y) != p.Rows {
		panic(fmt.Sprintf("linalg: Packed product size mismatch A=%dx%d len(x)=%d len(y)=%d",
			p.Rows, p.Cols, len(x), len(y)))
	}
	full := p.Rows &^ 3
	panels := p.Data[:full*p.Cols]
	done := packedVec(panels, x, y[:full], add)
	packedGo(panels[done*p.Cols:], x, y[done:full], add)
	mulRows(p.Data[full*p.Cols:], x, y[full:], add)
}

// packedGo is the Go panel loop: four independent row sums per group, each
// in the row loop's order and rounding, for len(y)/4 groups at panels.
func packedGo(panels, x, y []float64, add bool) {
	cols := len(x)
	for g := 0; g+4 <= len(y); g += 4 {
		panel := panels[g*cols : (g+4)*cols]
		var s0, s1, s2, s3 float64
		for j, xj := range x {
			c := panel[4*j : 4*j+4 : 4*j+4]
			s0 += float64(c[0] * xj)
			s1 += float64(c[1] * xj)
			s2 += float64(c[2] * xj)
			s3 += float64(c[3] * xj)
		}
		if add {
			y[g] += s0
			y[g+1] += s1
			y[g+2] += s2
			y[g+3] += s3
		} else {
			y[g], y[g+1], y[g+2], y[g+3] = s0, s1, s2, s3
		}
	}
}

// mulRows is the row loop over len(y) row-major rows of len(x) columns at
// a: each row summed from +0 over ascending columns, one rounded product
// (the conversion forbids fusing it into the add) and one rounded add per
// term, then stored into y or added to it once.
func mulRows(a, x, y []float64, add bool) {
	cols := len(x)
	for i := range y {
		var s float64
		for j, v := range a[i*cols : (i+1)*cols] {
			s += float64(v * x[j])
		}
		if add {
			y[i] += s
		} else {
			y[i] = s
		}
	}
}
