package matrix

import (
	"slices"

	"repro/internal/par"
)

// CSR is a sparse 0/1 matrix in compressed-sparse-row layout. The heavy
// subrelations of Algorithm 1 are often sparse even after partitioning
// (each heavy x touches far fewer than |heavy y| columns); for those
// instances a Gustavson-style sparse product beats the dense bit kernel,
// and the engine's ablation benchmarks quantify the crossover.
type CSR struct {
	Rows, Cols int
	RowPtr     []int32 // len Rows+1
	ColIdx     []int32 // sorted within each row
}

// NewCSR builds a CSR matrix from per-row sorted column lists. Lists are
// copied.
func NewCSR(rows, cols int, rowLists [][]int32) *CSR {
	m := &CSR{Rows: rows, Cols: cols, RowPtr: make([]int32, rows+1)}
	total := 0
	for _, l := range rowLists {
		total += len(l)
	}
	m.ColIdx = make([]int32, 0, total)
	for i := 0; i < rows; i++ {
		var l []int32
		if i < len(rowLists) {
			l = rowLists[i]
		}
		m.ColIdx = append(m.ColIdx, l...)
		m.RowPtr[i+1] = int32(len(m.ColIdx))
	}
	return m
}

// Row returns row i's sorted column indexes (aliasing internal storage).
func (m *CSR) Row(i int) []int32 { return m.ColIdx[m.RowPtr[i]:m.RowPtr[i+1]] }

// denseHarvestDiv is the dense-row crossover of SpGEMMCounts: once an output
// row's nonzero count reaches 1/denseHarvestDiv of the column domain, one
// linear scan of the accumulator is cheaper than sorting the column list —
// and the scan delivers the columns already in index order, so no sort runs
// at all on that path.
const denseHarvestDiv = 8

// SpGEMMCounts computes the integer product C = A × B with Gustavson's
// algorithm: for each row i of A and each k in that row, scatter row k of B
// into a dense accumulator. B is in standard (not transposed) orientation,
// i.e. B.Rows must equal A.Cols. The result is returned row by row through
// fn(i, cols, counts), where cols lists the nonzero columns (sorted) and
// counts the multiplicities; both buffers are reused and must not be
// retained. fn is called concurrently for distinct rows. Worker scratch
// (accumulator and output buffers) is pooled, so a warm steady state
// allocates nothing.
func SpGEMMCounts(a, b *CSR, workers int, fn func(i int, cols []int32, counts []int32)) {
	if a.Cols != b.Rows {
		panic("matrix: SpGEMM dimension mismatch")
	}
	// Single-worker fast path: no chunk closure materializes, so a warm
	// call performs zero allocations.
	if par.Workers(workers) == 1 || a.Rows <= 1 {
		spGEMMChunk(a, b, 0, a.Rows, fn)
		return
	}
	par.ForChunks(a.Rows, workers, func(lo, hi int) {
		spGEMMChunk(a, b, lo, hi, fn)
	})
}

// spGEMMChunk evaluates output rows [lo, hi) with one pooled scratch set.
func spGEMMChunk(a, b *CSR, lo, hi int, fn func(i int, cols []int32, counts []int32)) {
	sc := getSpGEMMScratch(b.Cols)
	acc := sc.acc
	cols := sc.cols[:0]
	counts := sc.counts[:0]
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
		counts = counts[:0]
		if len(cols)*denseHarvestDiv >= b.Cols {
			// Dense row: harvest by scanning the accumulator directly.
			cols = cols[:0]
			for j := range acc {
				if acc[j] != 0 {
					cols = append(cols, int32(j))
					counts = append(counts, acc[j])
					acc[j] = 0
				}
			}
		} else {
			slices.Sort(cols)
			for _, j := range cols {
				counts = append(counts, acc[j])
				acc[j] = 0
			}
		}
		fn(i, cols, counts)
	}
	sc.cols, sc.counts = cols, counts
	putSpGEMMScratch(sc)
}
