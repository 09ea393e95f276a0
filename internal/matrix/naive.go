package matrix

import (
	"sort"

	"repro/internal/par"
)

// This file preserves the original memory-naive kernels as unexported
// correctness oracles. The exported kernels in bitmat.go and csr.go are
// cache-blocked rewrites; the differential tests in
// diff_test.go pit them against these reference implementations on
// randomized shapes. Do not optimize anything here — simplicity is the
// point.

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
