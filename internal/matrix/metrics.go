package matrix

import "repro/internal/obs"

// Kernel counters record the work volume each bit-matrix kernel is asked to
// perform: one bump per call at kernel entry, so the tile loop itself stays
// untouched. Tiles are ibTile-row register blocks; words are the scheduled
// A-word loads against Bᵀ rows (rows × rowWords × bT.Rows), the quantity the
// cost model prices. Counts are scheduled volume: a cooperative stop may
// abandon part of a sweep, and that remainder is still counted here.
var (
	kernelCalls = obs.Default().CounterVec(
		"joinmm_kernel_calls_total",
		"Bit-matrix kernel invocations by kernel.",
		"kernel")
	kernelTiles = obs.Default().CounterVec(
		"joinmm_kernel_tiles_total",
		"Register-block tiles scheduled by kernel.",
		"kernel")
	kernelWords = obs.Default().CounterVec(
		"joinmm_kernel_words_total",
		"64-bit word operations scheduled by kernel (rows x words-per-row x B-rows).",
		"kernel")
)

// Per-kernel children resolved once so a kernel call costs three atomic adds,
// not three map lookups.
var (
	mulCountCalls = kernelCalls.With("mulbitcount")
	mulCountTiles = kernelTiles.With("mulbitcount")
	mulCountWords = kernelWords.With("mulbitcount")

	rowProdCalls = kernelCalls.With("roweachproduct")
	rowProdTiles = kernelTiles.With("roweachproduct")
	rowProdWords = kernelWords.With("roweachproduct")
)

// noteKernel records one kernel dispatch of rows output rows against bT.
func noteKernel(calls, tiles, words *obs.Counter, rows, rowWords, bRows int) {
	calls.Inc()
	tiles.Add(uint64((rows + ibTile - 1) / ibTile))
	words.Add(uint64(rows) * uint64(rowWords) * uint64(bRows))
}
