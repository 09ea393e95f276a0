package matrix

import (
	"fmt"
	"sort"

	"repro/internal/par"
)

// This file holds the correctness oracles the kernels are tested against:
// the textbook dense product MulNaive with its conversions, and the original
// memory-naive kernels. The exported kernels in bitmat.go and csr.go are
// cache-blocked rewrites; the differential tests in diff_test.go pit them
// against these reference implementations on randomized shapes. Do not
// optimize anything here — simplicity is the point.

// mulBitCountNaive is the original row-at-a-time count product: every output
// row streams the entire Bᵀ operand.
func mulBitCountNaive(a, bT *BitMatrix, workers int) *Int32 {
	if a.Cols != bT.Cols {
		panic("matrix: bit product dimension mismatch")
	}
	c := NewInt32(a.Rows, bT.Rows)
	par.ForChunks(a.Rows, workers, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			ra := a.RowWords(i)
			crow := c.Row(i)
			for j := 0; j < bT.Rows; j++ {
				crow[j] = int32(andCountWords(ra, bT.RowWords(j)))
			}
		}
	})
	return c
}

// forEachRowProductNaive is the original streaming variant with a per-worker
// make of the counts buffer.
func forEachRowProductNaive(a, bT *BitMatrix, workers int, fn func(i int, counts []int32)) {
	if a.Cols != bT.Cols {
		panic("matrix: bit product dimension mismatch")
	}
	par.ForChunks(a.Rows, workers, func(lo, hi int) {
		counts := make([]int32, bT.Rows)
		for i := lo; i < hi; i++ {
			ra := a.RowWords(i)
			for j := 0; j < bT.Rows; j++ {
				counts[j] = int32(andCountWords(ra, bT.RowWords(j)))
			}
			fn(i, counts)
		}
	})
}

// spGEMMCountsNaive is the original Gustavson product with interface-based
// sort.Slice and per-worker buffer growth.
func spGEMMCountsNaive(a, b *CSR, workers int, fn func(i int, cols []int32, counts []int32)) {
	if a.Cols != b.Rows {
		panic("matrix: SpGEMM dimension mismatch")
	}
	par.ForChunks(a.Rows, workers, func(lo, hi int) {
		acc := make([]int32, b.Cols)
		var cols []int32
		var counts []int32
		for i := lo; i < hi; i++ {
			cols = cols[:0]
			for _, k := range a.Row(i) {
				for _, j := range b.Row(int(k)) {
					if acc[j] == 0 {
						cols = append(cols, j)
					}
					acc[j]++
				}
			}
			sort.Slice(cols, func(x, y int) bool { return cols[x] < cols[y] })
			counts = counts[:0]
			for _, j := range cols {
				counts = append(counts, acc[j])
				acc[j] = 0
			}
			fn(i, cols, counts)
		}
	})
}

// andCountWords counts shared bits of two word slices that may differ in
// length (the shorter prefix is used). Kept for the naive oracles and row
// views.
func andCountWords(a, b []uint64) int {
	if len(b) < len(a) {
		a, b = b, a
	}
	return andCountEq(a, b)
}

// ToInt32 expands the bit matrix into a dense 0/1 int32 matrix (test oracle).
func (m *BitMatrix) ToInt32() *Int32 {
	d := NewInt32(m.Rows, m.Cols)
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			if m.Test(i, j) {
				d.Set(i, j, 1)
			}
		}
	}
	return d
}

// CSRFromBitMatrix converts a bit matrix into CSR layout.
func CSRFromBitMatrix(b *BitMatrix) *CSR {
	lists := make([][]int32, b.Rows)
	for i := 0; i < b.Rows; i++ {
		var l []int32
		b.Row(i).ForEach(func(j int) { l = append(l, int32(j)) })
		lists[i] = l
	}
	return NewCSR(b.Rows, b.Cols, lists)
}

// spGEMMDense materializes SpGEMMCounts' product densely.
func spGEMMDense(a, b *CSR, workers int) *Int32 {
	c := NewInt32(a.Rows, b.Cols)
	SpGEMMCounts(a, b, workers, func(i int, cols, counts []int32) {
		row := c.Row(i)
		for k, j := range cols {
			row[j] = counts[k]
		}
	})
	return c
}

// Transpose returns mᵀ in CSR layout.
func (m *CSR) Transpose() *CSR {
	lists := make([][]int32, m.Cols)
	for i := 0; i < m.Rows; i++ {
		for _, j := range m.Row(i) {
			lists[j] = append(lists[j], int32(i))
		}
	}
	return NewCSR(m.Cols, m.Rows, lists)
}

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

// Test reports whether entry (i, j) is 1.
func (m *BitMatrix) Test(i, j int) bool {
	return m.words[i*m.rowWords+j/64]&(1<<uint(j%64)) != 0
}

// At returns the (i, j) entry.
func (m *Int32) At(i, j int) int32 { return m.Data[i*m.Cols+j] }

// Set assigns the (i, j) entry.
func (m *Int32) Set(i, j int, v int32) { m.Data[i*m.Cols+j] = v }
