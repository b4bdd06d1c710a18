// Package mat provides the small dense linear-algebra kernels the neural
// network substrate needs: row-major matrices, matrix-vector products, and
// rank-one updates. Everything is float64 and allocation-conscious — the
// hot loops (policy inference at every tuning interval on every agent) run
// with caller-provided destination buffers.
package mat

import (
	"fmt"
	"math"
)

// Matrix is a dense row-major matrix.
type Matrix struct {
	Rows, Cols int
	Data       []float64 // len Rows*Cols
}

// New allocates a zero matrix.
func New(rows, cols int) *Matrix {
	if rows <= 0 || cols <= 0 {
		panic(fmt.Sprintf("mat: invalid dims %dx%d", rows, cols))
	}
	return &Matrix{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// At returns m[i,j].
func (m *Matrix) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set assigns m[i,j].
func (m *Matrix) Set(i, j int, v float64) { m.Data[i*m.Cols+j] = v }

// Row returns a slice aliasing row i.
func (m *Matrix) Row(i int) []float64 { return m.Data[i*m.Cols : (i+1)*m.Cols] }

// Zero clears all entries.
func (m *Matrix) Zero() {
	for i := range m.Data {
		m.Data[i] = 0
	}
}

// Clone returns a deep copy.
func (m *Matrix) Clone() *Matrix {
	c := New(m.Rows, m.Cols)
	copy(c.Data, m.Data)
	return c
}

// MulVec computes dst = m · x. dst must have length Rows and not alias x.
//
// Rows are computed four at a time, each with its own accumulator that
// starts at 0 and sums in ascending column order, so every entry is the
// float64 a one-row loop gives: the separate accumulators only break the
// chain of dependent adds. Each product is rounded before its add
// (float64(a*b)), which rules out a fused multiply-add on any GOARCH.
func (m *Matrix) MulVec(x, dst []float64) {
	if len(x) != m.Cols || len(dst) != m.Rows {
		panic("mat: MulVec dimension mismatch")
	}
	c := m.Cols
	i := 0
	for ; i+4 <= m.Rows; i += 4 {
		r0 := m.Data[i*c : (i+1)*c]
		r1 := m.Data[(i+1)*c : (i+2)*c][:len(r0)]
		r2 := m.Data[(i+2)*c : (i+3)*c][:len(r0)]
		r3 := m.Data[(i+3)*c : (i+4)*c][:len(r0)]
		x := x[:len(r0)]
		var s0, s1, s2, s3 float64
		for j, xj := range x {
			s0 += float64(r0[j] * xj)
			s1 += float64(r1[j] * xj)
			s2 += float64(r2[j] * xj)
			s3 += float64(r3[j] * xj)
		}
		dst[i], dst[i+1], dst[i+2], dst[i+3] = s0, s1, s2, s3
	}
	for ; i < m.Rows; i++ {
		dst[i] = Dot(m.Data[i*c:(i+1)*c], x)
	}
}

// MulVecT computes dst = mᵀ · x. dst must have length Cols and not alias x.
//
// Rows whose x entry is exactly zero are skipped; the others are added into
// dst in ascending row order, four of them per pass over dst. A pass writes
// dst[j] + t0 + t1 + t2 + t3, which Go evaluates left to right, so every
// entry is the float64 a one-row-at-a-time loop gives.
func (m *Matrix) MulVecT(x, dst []float64) {
	if len(x) != m.Rows || len(dst) != m.Cols {
		panic("mat: MulVecT dimension mismatch")
	}
	for j := range dst {
		dst[j] = 0
	}
	c := m.Cols
	var rows [4]int // the pending nonzero rows, ascending
	n := 0
	for i, xi := range x {
		if xi == 0 {
			continue
		}
		rows[n] = i
		if n++; n < len(rows) {
			continue
		}
		n = 0
		i0, i1, i2, i3 := rows[0], rows[1], rows[2], rows[3]
		x0, x1, x2, x3 := x[i0], x[i1], x[i2], x[i3]
		r0 := m.Data[i0*c : (i0+1)*c][:len(dst)]
		r1 := m.Data[i1*c : (i1+1)*c][:len(dst)]
		r2 := m.Data[i2*c : (i2+1)*c][:len(dst)]
		r3 := m.Data[i3*c : (i3+1)*c][:len(dst)]
		for j, d := range dst {
			dst[j] = d + float64(r0[j]*x0) + float64(r1[j]*x1) + float64(r2[j]*x2) + float64(r3[j]*x3)
		}
	}
	for _, i := range rows[:n] {
		xi := x[i]
		row := m.Data[i*c : (i+1)*c][:len(dst)]
		for j, w := range row {
			dst[j] += float64(w * xi)
		}
	}
}

// AddOuter performs the rank-one update m += scale · a·bᵀ, the gradient
// accumulation step of a linear layer.
func (m *Matrix) AddOuter(a, b []float64, scale float64) {
	if len(a) != m.Rows || len(b) != m.Cols {
		panic("mat: AddOuter dimension mismatch")
	}
	for i, ai := range a {
		if ai == 0 {
			continue
		}
		row := m.Data[i*m.Cols : (i+1)*m.Cols]
		f := scale * ai
		for j, bj := range b {
			row[j] += f * bj
		}
	}
}

// Vector helpers.

// Dot returns aᵀb, summed in ascending index order with each product
// rounded before its add: the same float64 as the matching row of MulVec.
func Dot(a, b []float64) float64 {
	if len(a) != len(b) {
		panic("mat: Dot length mismatch")
	}
	b = b[:len(a)]
	s := 0.0
	for i, v := range a {
		s += float64(v * b[i])
	}
	return s
}

// Axpy performs y += alpha·x.
func Axpy(alpha float64, x, y []float64) {
	if len(x) != len(y) {
		panic("mat: Axpy length mismatch")
	}
	for i, v := range x {
		y[i] += alpha * v
	}
}

// Scale multiplies x by alpha in place.
func Scale(alpha float64, x []float64) {
	for i := range x {
		x[i] *= alpha
	}
}

// Fill sets every element of x to v.
func Fill(x []float64, v float64) {
	for i := range x {
		x[i] = v
	}
}

// Clone copies a vector.
func Clone(x []float64) []float64 {
	c := make([]float64, len(x))
	copy(c, x)
	return c
}

// ArgMax returns the index of the largest element (first on ties).
func ArgMax(x []float64) int {
	if len(x) == 0 {
		panic("mat: ArgMax of empty vector")
	}
	best := 0
	for i, v := range x[1:] {
		if v > x[best] {
			best = i + 1
		}
	}
	return best
}

// Norm2 returns the Euclidean norm.
func Norm2(x []float64) float64 {
	s := 0.0
	for _, v := range x {
		s += v * v
	}
	return math.Sqrt(s)
}
