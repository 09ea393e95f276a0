package matrix

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
)

// Differential tests: the cache-blocked kernels must be bit-identical to
// the naive oracles in naive.go on randomized shapes, with the dimension
// pool biased toward the adversarial cases the tiling has to get right —
// sizes straddling the register block (ibTile), the cache tiles (jbTile,
// kbTile·64 bits) and the 64-bit word boundary, plus degenerate 1×N, N×1,
// empty-row and all-ones instances.

// diffDim draws a dimension from the adversarial pool.
func diffDim(rng *rand.Rand) int {
	pool := []int{
		1, 2, 3, ibTile - 1, ibTile, ibTile + 1,
		jbTile - 1, jbTile, jbTile + 1,
		63, 64, 65, 127, 128, 129,
		2*jbTile - 1, 2*jbTile + 3,
	}
	if rng.Intn(3) == 0 {
		return 1 + rng.Intn(300)
	}
	return pool[rng.Intn(len(pool))]
}

// diffMatrix builds a random bit matrix, sometimes with adversarial row
// patterns (empty rows, all-ones rows).
func diffMatrix(rng *rand.Rand, rows, cols int) *BitMatrix {
	m := NewBitMatrix(rows, cols)
	density := []float64{0.02, 0.2, 0.5, 0.95}[rng.Intn(4)]
	for i := 0; i < rows; i++ {
		switch rng.Intn(8) {
		case 0: // empty row
		case 1: // all-ones row
			for j := 0; j < cols; j++ {
				m.Set(i, j)
			}
		default:
			for j := 0; j < cols; j++ {
				if rng.Float64() < density {
					m.Set(i, j)
				}
			}
		}
	}
	return m
}

// TestDiffKernels runs the full kernel lineup against the naive oracles on
// 660 randomized kernel runs (3 kernels × 220 shape draws, plus the edge
// shapes below).
func TestDiffKernels(t *testing.T) {
	rng := rand.New(rand.NewSource(0xd1ff))
	const trials = 220
	for trial := 0; trial < trials; trial++ {
		u, v, w := diffDim(rng), diffDim(rng), diffDim(rng)
		workers := 1 + rng.Intn(4)
		a := diffMatrix(rng, u, v)
		bT := diffMatrix(rng, w, v)

		if got, want := MulBitCount(a, bT, workers), mulBitCountNaive(a, bT, 1); !got.Equal(want) {
			t.Fatalf("trial %d (%d,%d,%d w=%d): MulBitCount != naive", trial, u, v, w, workers)
		}

		got := NewInt32(u, w)
		ForEachRowProductStop(a, bT, workers, nil, func(i int, counts []int32) {
			copy(got.Row(i), counts)
		})
		want := NewInt32(u, w)
		forEachRowProductNaive(a, bT, 1, func(i int, counts []int32) {
			copy(want.Row(i), counts)
		})
		if !got.Equal(want) {
			t.Fatalf("trial %d (%d,%d,%d w=%d): ForEachRowProduct != naive", trial, u, v, w, workers)
		}

		// SpGEMM over the same logical product A × Bᵀᵀ (B in standard
		// orientation = transpose of bT).
		ca := CSRFromBitMatrix(a)
		cb := CSRFromBitMatrix(bT).Transpose()
		gotS := NewInt32(u, w)
		SpGEMMCounts(ca, cb, workers, func(i int, cols, counts []int32) {
			for k, j := range cols {
				gotS.Row(i)[j] = counts[k]
			}
			for k := 1; k < len(cols); k++ {
				if cols[k-1] >= cols[k] {
					t.Fatalf("trial %d: SpGEMMCounts cols not strictly sorted", trial)
				}
			}
		})
		wantS := NewInt32(u, w)
		spGEMMCountsNaive(ca, cb, 1, func(i int, cols, counts []int32) {
			for k, j := range cols {
				wantS.Row(i)[j] = counts[k]
			}
		})
		if !gotS.Equal(wantS) {
			t.Fatalf("trial %d (%d,%d,%d w=%d): SpGEMMCounts != naive", trial, u, v, w, workers)
		}
	}
}

// TestDiffKernelsFallback re-runs a reduced differential pass with the
// assembly kernel disabled, so the pure-Go register-blocked fallback — the
// only count kernel non-amd64 builds execute — gets the same oracle
// coverage on every CI architecture.
func TestDiffKernelsFallback(t *testing.T) {
	saved := hasPOPCNT
	hasPOPCNT = false
	defer func() { hasPOPCNT = saved }()

	rng := rand.New(rand.NewSource(0xfa11))
	for trial := 0; trial < 60; trial++ {
		u, v, w := diffDim(rng), diffDim(rng), diffDim(rng)
		a := diffMatrix(rng, u, v)
		bT := diffMatrix(rng, w, v)
		if !MulBitCount(a, bT, 1+rng.Intn(3)).Equal(mulBitCountNaive(a, bT, 1)) {
			t.Fatalf("trial %d (%d,%d,%d): fallback MulBitCount != naive", trial, u, v, w)
		}
	}
}

// TestDiffKernelsEdgeShapes pins the degenerate shapes explicitly.
func TestDiffKernelsEdgeShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(0xed6e))
	shapes := [][3]int{
		{1, 1, 1}, {1, 200, 1}, {200, 1, 200}, {1, 64, 300}, {300, 64, 1},
		{ibTile, 64, jbTile}, {ibTile + 1, 65, jbTile + 1},
		{2, kbTile*64 + 7, 2}, // shared dimension spans two k-tiles
		{ibTile * 3, 63, jbTile*2 + 1},
		{5, 8, 5}, {8, 8, 8},
	}
	for _, sh := range shapes {
		u, v, w := sh[0], sh[1], sh[2]
		a := diffMatrix(rng, u, v)
		bT := diffMatrix(rng, w, v)
		if !MulBitCount(a, bT, 2).Equal(mulBitCountNaive(a, bT, 1)) {
			t.Fatalf("shape %v: MulBitCount != naive", sh)
		}
	}
	// Zero-row operands must not panic and must produce empty results.
	empty := NewBitMatrix(0, 64)
	other := diffMatrix(rng, 3, 64)
	if c := MulBitCount(empty, other, 2); c.Rows != 0 || c.Cols != 3 {
		t.Fatal("zero-row product has wrong shape")
	}
	if c := MulBitCount(other, empty, 2); c.Rows != 3 || c.Cols != 0 {
		t.Fatal("zero-col product has wrong shape")
	}
	ForEachRowProductStop(empty, other, 2, nil, func(int, []int32) { t.Fatal("unexpected row") })
}

// TestForEachRowProductZeroAllocs verifies the pooled scratch: after warm-up
// the streaming product allocates nothing per invocation.
func TestForEachRowProductZeroAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	a := diffMatrix(rng, 37, 190)
	bT := diffMatrix(rng, 29, 190)
	var sink int32
	cb := func(i int, counts []int32) { sink += counts[0] }
	run := func() { ForEachRowProductStop(a, bT, 1, nil, cb) }
	run() // warm the pool
	if avg := testing.AllocsPerRun(100, run); avg > 0.01 && !raceEnabled {
		t.Fatalf("ForEachRowProduct allocates %.2f objects per run, want 0", avg)
	}
}

// TestSpGEMMCountsZeroAllocs does the same for the sparse kernel, covering
// both the sorted and the dense-harvest paths.
func TestSpGEMMCountsZeroAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	a := CSRFromBitMatrix(diffMatrix(rng, 40, 80))
	b := CSRFromBitMatrix(diffMatrix(rng, 80, 120))
	var sink int32
	cb := func(i int, cols, counts []int32) {
		if len(counts) > 0 {
			sink += counts[0]
		}
	}
	run := func() { SpGEMMCounts(a, b, 1, cb) }
	run()
	if avg := testing.AllocsPerRun(100, run); avg > 0.01 && !raceEnabled {
		t.Fatalf("SpGEMMCounts allocates %.2f objects per run, want 0", avg)
	}
}

// TestKernelsConcurrentScratch hammers the pooled-scratch kernels from many
// goroutines at once — the -race CI lane turns any sharing bug into a
// failure.
func TestKernelsConcurrentScratch(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	a := diffMatrix(rng, 50, 130)
	bT := diffMatrix(rng, 40, 130)
	ca := CSRFromBitMatrix(a)
	cb := CSRFromBitMatrix(bT).Transpose()
	wantCount := mulBitCountNaive(a, bT, 1)

	var wg sync.WaitGroup
	errs := make(chan error, 24)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for it := 0; it < 5; it++ {
				if !MulBitCount(a, bT, 3).Equal(wantCount) {
					errs <- fmt.Errorf("goroutine %d: MulBitCount mismatch", g)
					return
				}
				got := NewInt32(a.Rows, bT.Rows)
				ForEachRowProductStop(a, bT, 3, nil, func(i int, counts []int32) {
					copy(got.Row(i), counts)
				})
				if !got.Equal(wantCount) {
					errs <- fmt.Errorf("goroutine %d: ForEachRowProduct mismatch", g)
					return
				}
				SpGEMMCounts(ca, cb, 3, func(i int, cols, counts []int32) {
					for k, j := range cols {
						if wantCount.At(i, int(j)) != counts[k] {
							select {
							case errs <- fmt.Errorf("goroutine %d: SpGEMM mismatch at (%d,%d)", g, i, j):
							default:
							}
						}
					}
				})
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// Benchmarks pitting the blocked kernels against the retained oracles on an
// out-of-L2 shape; cmd/joinbench -json snapshots the headline numbers.
func benchBitPair(b *testing.B, n int) (x, y *BitMatrix) {
	rng := rand.New(rand.NewSource(14))
	x = NewBitMatrix(n, n)
	y = NewBitMatrix(n, n)
	for i := 0; i < n; i++ {
		for j := rng.Intn(3); j < n; j += 1 + rng.Intn(5) {
			x.Set(i, j)
			y.Set(i, (j+i)%n)
		}
	}
	b.ResetTimer()
	return x, y
}

func BenchmarkMulBitCountBlocked2048(b *testing.B) {
	x, y := benchBitPair(b, 2048)
	for i := 0; i < b.N; i++ {
		_ = MulBitCount(x, y, 1)
	}
}

func BenchmarkMulBitCountNaive2048(b *testing.B) {
	x, y := benchBitPair(b, 2048)
	for i := 0; i < b.N; i++ {
		_ = mulBitCountNaive(x, y, 1)
	}
}

func BenchmarkForEachRowProduct1024(b *testing.B) {
	x, y := benchBitPair(b, 1024)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ForEachRowProductStop(x, y, 1, nil, func(int, []int32) {})
	}
}
