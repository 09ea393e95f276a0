// Package matrix implements the matrix-multiplication substrate of the
// join-project engine (Section 2.2 of the paper).
//
// The paper's prototype delegates to Eigen/Intel MKL. This package provides
// the pure-Go equivalents:
//
//   - a bit-packed boolean matrix whose product-with-counts kernel
//     (64-bit AND + POPCNT) plays the role MKL's vectorized SGEMM plays in
//     the paper, materialized (MulBitCount) or streamed a row at a time
//     (ForEachRowProductStop),
//   - a dense row-major int32 matrix for the witness counts,
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

// Row returns row i as a slice aliasing the matrix storage.
func (m *Int32) Row(i int) []int32 { return m.Data[i*m.Cols : (i+1)*m.Cols] }

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
