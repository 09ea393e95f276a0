// Package matrix implements the matrix-multiplication substrate of the
// join-project engine (Section 2.2 of the paper).
//
// The paper's prototype delegates to Eigen/Intel MKL. This package provides
// the pure-Go equivalents:
//
//   - a bit-packed boolean matrix whose product-with-counts kernel
//     (64-bit AND + POPCNT) plays the role MKL's vectorized SGEMM plays in
//     the paper, materialized (MulBitCount) or streamed a row at a time
//     (ForEachRowProduct),
//   - a dense row-major int32 matrix for the witness counts, with the
//     textbook product as the kernels' correctness oracle,
//   - a Gustavson sparse product over CSR operands (csr.go),
//   - a calibrated cost model M̂(u,v,w,co) used by the Section-5 optimizer.
package matrix

import "fmt"

// Int32 is a dense row-major matrix of int32 entries. In join processing the
// entries are witness counts, which fit comfortably in int32 for the scales
// the optimizer admits.
type Int32 struct {
	Rows, Cols int
	Data       []int32 // len Rows*Cols, row-major
}

// NewInt32 allocates a zeroed Rows×Cols matrix.
func NewInt32(rows, cols int) *Int32 {
	return &Int32{Rows: rows, Cols: cols, Data: make([]int32, rows*cols)}
}

// At returns the (i, j) entry.
func (m *Int32) At(i, j int) int32 { return m.Data[i*m.Cols+j] }

// Set assigns the (i, j) entry.
func (m *Int32) Set(i, j int, v int32) { m.Data[i*m.Cols+j] = v }

// Row returns row i as a slice aliasing the matrix storage.
func (m *Int32) Row(i int) []int32 { return m.Data[i*m.Cols : (i+1)*m.Cols] }

// Equal reports whether m and o have identical shape and entries.
func (m *Int32) Equal(o *Int32) bool {
	if m.Rows != o.Rows || m.Cols != o.Cols {
		return false
	}
	for i, v := range m.Data {
		if v != o.Data[i] {
			return false
		}
	}
	return true
}

// Transpose returns mᵀ.
func (m *Int32) Transpose() *Int32 {
	t := NewInt32(m.Cols, m.Rows)
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		for j, v := range row {
			t.Data[j*t.Cols+i] = v
		}
	}
	return t
}

// String renders small matrices for debugging and test failure messages.
func (m *Int32) String() string {
	s := fmt.Sprintf("Int32(%dx%d)", m.Rows, m.Cols)
	if m.Rows*m.Cols <= 64 {
		s += " ["
		for i := 0; i < m.Rows; i++ {
			s += fmt.Sprintf("%v", m.Row(i))
		}
		s += "]"
	}
	return s
}

func checkMulShapes(a, b *Int32) {
	if a.Cols != b.Rows {
		panic(fmt.Sprintf("matrix: shape mismatch %dx%d × %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
}

// MulNaive computes a×b with the textbook triple loop. It exists as the
// correctness oracle for the optimized kernels.
func MulNaive(a, b *Int32) *Int32 {
	checkMulShapes(a, b)
	c := NewInt32(a.Rows, b.Cols)
	for i := 0; i < a.Rows; i++ {
		for j := 0; j < b.Cols; j++ {
			var s int32
			for k := 0; k < a.Cols; k++ {
				s += a.At(i, k) * b.At(k, j)
			}
			c.Set(i, j, s)
		}
	}
	return c
}
