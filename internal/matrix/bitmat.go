package matrix

import (
	"math/bits"

	"repro/internal/bitset"
	"repro/internal/par"
)

// BitMatrix is a 0/1 matrix stored as bit-packed rows: 64 columns per word.
// It is the representation Algorithm 1 uses for the adjacency matrices of
// the heavy subrelations R⁺ and S⁺. The product-with-counts kernel below —
// per-row 64-bit AND + POPCNT — is the pure-Go counterpart of the vectorized
// SGEMM the paper obtains from Eigen/MKL: both exploit data-level
// parallelism (64 columns per word here, SIMD lanes there), which is what
// makes matrix multiplication beat pairwise list intersection on dense
// inputs.
type BitMatrix struct {
	Rows, Cols int
	rowWords   int
	words      []uint64
}

// NewBitMatrix allocates a zeroed Rows×Cols bit matrix in one contiguous
// allocation.
func NewBitMatrix(rows, cols int) *BitMatrix {
	rw := (cols + 63) / 64
	return &BitMatrix{Rows: rows, Cols: cols, rowWords: rw, words: make([]uint64, rows*rw)}
}

// Set sets entry (i, j) to 1.
func (m *BitMatrix) Set(i, j int) {
	m.words[i*m.rowWords+j/64] |= 1 << uint(j%64)
}

// RowWords returns row i's backing words.
func (m *BitMatrix) RowWords(i int) []uint64 {
	return m.words[i*m.rowWords : (i+1)*m.rowWords]
}

// Row returns row i as a bitset view sharing storage with the matrix.
func (m *BitMatrix) Row(i int) *bitset.Bitset {
	return bitset.FromWords(m.RowWords(i), m.Cols)
}

// Ones returns the number of 1 entries.
func (m *BitMatrix) Ones() int {
	c := 0
	for _, w := range m.words {
		c += bits.OnesCount64(w)
	}
	return c
}

// Tiling parameters of the blocked kernels. The inner kernel processes
// ibTile rows of A against one row of Bᵀ: each Bᵀ word is loaded once and
// ANDed into ibTile independent popcount chains, so the arithmetic per load
// quadruples and the dependency chains stay short. Around that register
// block, the j×k tile of Bᵀ (jbTile rows × kbTile words = 16 KiB) stays
// resident in L1d for the whole i-block, so Bᵀ is fetched from the outer
// memory levels once per ibTile output rows instead of once per output row.
// See internal/matrix/README.md for the measurements behind these choices.
const (
	ibTile = 4  // A rows per register block
	jbTile = 32 // Bᵀ rows per cache tile
	kbTile = 64 // words per cache tile (512 B per row segment)
)

// MulBitCount computes the integer matrix product C = A × Bᵀ where A is
// rows(a)×cols and bT holds Bᵀ (so bT rows index the product's columns and
// both operands are packed along the shared dimension). C[i][j] is the
// number of shared 1-columns of a.Row(i) and bT.Row(j) — exactly the witness
// count M_{i,j} of Algorithm 1. workers ≤ 0 means all cores.
func MulBitCount(a, bT *BitMatrix, workers int) *Int32 {
	return MulBitCountStop(a, bT, workers, nil)
}

// MulBitCountStop is MulBitCount with a cooperative cancellation hook: stop
// is polled once per register block of output rows (every ibTile rows), and
// a true return abandons the remaining work, leaving the result partial. A
// nil stop costs one predictable branch per block, so the hot kernel is
// unchanged when cancellation is not in play.
func MulBitCountStop(a, bT *BitMatrix, workers int, stop func() bool) *Int32 {
	if a.Cols != bT.Cols {
		panic("matrix: bit product dimension mismatch")
	}
	noteKernel(mulCountCalls, mulCountTiles, mulCountWords, a.Rows, a.rowWords, bT.Rows)
	c := NewInt32(a.Rows, bT.Rows)
	par.ForChunks(a.Rows, workers, func(lo, hi int) {
		var dst [ibTile][]int32
		for i0 := lo; i0 < hi; i0 += ibTile {
			if stop != nil && stop() {
				return
			}
			ib := min(ibTile, hi-i0)
			for r := 0; r < ib; r++ {
				dst[r] = c.Row(i0 + r)
			}
			countTile(a, bT, i0, ib, &dst)
		}
	})
	return c
}

// ForEachRowProductStop streams the product A × Bᵀ one output row at a time
// without materializing the full count matrix: fn(i, counts) is invoked with
// counts[j] = |row_i(A) ∩ row_j(B)|. The counts slice is reused per worker,
// so fn must not retain it. fn is called concurrently for distinct i and
// must be safe under that concurrency. Count buffers come from a pool, so a
// warm steady state allocates nothing per call.
//
// stop is a cooperative cancellation hook: it is polled once per register
// block (every ibTile output rows) and a true return abandons the remaining
// rows, so a deadline on a long product takes effect within one block rather
// than after the full sweep. A nil stop runs every row.
func ForEachRowProductStop(a, bT *BitMatrix, workers int, stop func() bool, fn func(i int, counts []int32)) {
	if a.Cols != bT.Cols {
		panic("matrix: bit product dimension mismatch")
	}
	noteKernel(rowProdCalls, rowProdTiles, rowProdWords, a.Rows, a.rowWords, bT.Rows)
	// Single-worker fast path: no chunk closure materializes, so a warm
	// call performs zero allocations.
	if par.Workers(workers) == 1 || a.Rows <= 1 {
		forEachRowChunk(a, bT, 0, a.Rows, stop, fn)
		return
	}
	par.ForChunks(a.Rows, workers, func(lo, hi int) {
		forEachRowChunk(a, bT, lo, hi, stop, fn)
	})
}

// forEachRowChunk streams rows [lo, hi) of the product with one pooled
// count block.
func forEachRowChunk(a, bT *BitMatrix, lo, hi int, stop func() bool, fn func(i int, counts []int32)) {
	m := bT.Rows
	buf := getInt32Scratch(ibTile * m)
	defer putInt32Scratch(buf)
	var dst [ibTile][]int32
	for i0 := lo; i0 < hi; i0 += ibTile {
		if stop != nil && stop() {
			return
		}
		ib := min(ibTile, hi-i0)
		for r := 0; r < ib; r++ {
			dst[r] = (*buf)[r*m : (r+1)*m]
			clear(dst[r])
		}
		countTile(a, bT, i0, ib, &dst)
		for r := 0; r < ib; r++ {
			fn(i0+r, dst[r])
		}
	}
}

// countTile accumulates counts for A rows [i0, i0+ib) into dst[0..ib), each
// of length bT.Rows and pre-zeroed, with the (i-block × j-block × word-block)
// loop nest described at the tile constants.
func countTile(a, bT *BitMatrix, i0, ib int, dst *[ibTile][]int32) {
	rw := a.rowWords
	m := bT.Rows
	if rw == 0 || m == 0 {
		return
	}
	aw := a.words
	bw := bT.words
	for j0 := 0; j0 < m; j0 += jbTile {
		jb := min(jbTile, m-j0)
		for k0 := 0; k0 < rw; k0 += kbTile {
			kb := min(kbTile, rw-k0)
			if ib == ibTile {
				// Full register block: four A-row segments against each Bᵀ
				// row segment of the tile.
				p := i0*rw + k0
				d0, d1, d2, d3 := dst[0], dst[1], dst[2], dst[3]
				if hasPOPCNT {
					ap := &aw[p]
					for j := j0; j < j0+jb; j++ {
						c0, c1, c2, c3 := andCount4Popcnt(ap, rw, &bw[j*rw+k0], kb)
						d0[j] += int32(c0)
						d1[j] += int32(c1)
						d2[j] += int32(c2)
						d3[j] += int32(c3)
					}
					continue
				}
				// Full slice expressions pin the lengths so the fallback's
				// inner loops run bounds-check-free.
				a0 := aw[p : p+kb : p+kb]
				a1 := aw[p+rw : p+rw+kb : p+rw+kb]
				a2 := aw[p+2*rw : p+2*rw+kb : p+2*rw+kb]
				a3 := aw[p+3*rw : p+3*rw+kb : p+3*rw+kb]
				for j := j0; j < j0+jb; j++ {
					q := j*rw + k0
					c0, c1, c2, c3 := andCount4(a0, a1, a2, a3, bw[q:q+kb:q+kb])
					d0[j] += int32(c0)
					d1[j] += int32(c1)
					d2[j] += int32(c2)
					d3[j] += int32(c3)
				}
				continue
			}
			// Remainder rows of the last partial i-block.
			for r := 0; r < ib; r++ {
				p := (i0+r)*rw + k0
				ar := aw[p : p+kb : p+kb]
				dr := dst[r]
				for j := j0; j < j0+jb; j++ {
					q := j*rw + k0
					dr[j] += int32(andCountEq(ar, bw[q:q+kb:q+kb]))
				}
			}
		}
	}
}

// andCount4 is the pure-Go fallback of andCount4Popcnt: the popcounts of
// a0&b, a1&b, a2&b and a3&b. The slices must all have length ≥ len(b);
// reslicing to len(b) up front lets the compiler drop every bounds check,
// and the four independent accumulators keep the popcount dependency chains
// from serializing. The two-word unroll amortizes loop overhead.
func andCount4(a0, a1, a2, a3, b []uint64) (int, int, int, int) {
	n := len(b)
	a0 = a0[:n]
	a1 = a1[:n]
	a2 = a2[:n]
	a3 = a3[:n]
	var c0, c1, c2, c3 int
	i := 0
	for ; i+2 <= n; i += 2 {
		w0, w1 := b[i], b[i+1]
		c0 += bits.OnesCount64(a0[i]&w0) + bits.OnesCount64(a0[i+1]&w1)
		c1 += bits.OnesCount64(a1[i]&w0) + bits.OnesCount64(a1[i+1]&w1)
		c2 += bits.OnesCount64(a2[i]&w0) + bits.OnesCount64(a2[i+1]&w1)
		c3 += bits.OnesCount64(a3[i]&w0) + bits.OnesCount64(a3[i+1]&w1)
	}
	for ; i < n; i++ {
		w := b[i]
		c0 += bits.OnesCount64(a0[i] & w)
		c1 += bits.OnesCount64(a1[i] & w)
		c2 += bits.OnesCount64(a2[i] & w)
		c3 += bits.OnesCount64(a3[i] & w)
	}
	return c0, c1, c2, c3
}

// andCountEq is the single-row kernel for equal-length word slices.
func andCountEq(a, b []uint64) int {
	b = b[:len(a)]
	c := 0
	i := 0
	for ; i+4 <= len(a); i += 4 {
		c += bits.OnesCount64(a[i]&b[i]) +
			bits.OnesCount64(a[i+1]&b[i+1]) +
			bits.OnesCount64(a[i+2]&b[i+2]) +
			bits.OnesCount64(a[i+3]&b[i+3])
	}
	for ; i < len(a); i++ {
		c += bits.OnesCount64(a[i] & b[i])
	}
	return c
}
