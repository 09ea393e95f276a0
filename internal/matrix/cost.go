package matrix

import (
	"math"
	"math/rand"
	"sync"
	"time"
)

// CostModel estimates the wall-clock cost of the matrix steps of
// Algorithm 1, as required by the Section-5 optimizer: M̂(u,v,w,co) for the
// multiplication itself plus a construction estimate for materializing the
// operand matrices. The model is calibrated once per process with
// micro-probes of the actual kernels, the Go counterpart of the paper's
// precomputed Eigen timing table.
//
// The blocked kernels have two throughput regimes: while the Bᵀ operand
// fits the last private cache level the AND+POPCNT loop runs at its
// arithmetic peak, and beyond that the (i×j×k) tiling amortizes — but does
// not eliminate — the streaming traffic, so throughput drops by a modest,
// measurable factor. Both regimes are probed so the optimizer's crossover
// between MM and the combinatorial plans tracks the kernels it actually
// dispatches.
type CostModel struct {
	// WordOpsPerSec is the measured single-core throughput of the blocked
	// AND+POPCNT kernel with a cache-resident Bᵀ, in 64-bit word operations
	// per second.
	WordOpsPerSec float64
	// WordOpsPerSecStream is the throughput with Bᵀ well beyond the private
	// caches (clamped to at most WordOpsPerSec).
	WordOpsPerSecStream float64
	// StreamFootprint is the Bᵀ byte size above which the streaming rate
	// applies.
	StreamFootprint float64
	// CellOpsPerSec is the measured throughput of matrix construction
	// (allocation + bit staging), in cells per second.
	CellOpsPerSec float64
	// ParallelEff discounts ideal speedup for multi-core estimates; the
	// paper's Figure 3b reports near-linear scaling, so this stays close
	// to 1.
	ParallelEff float64
}

var (
	defaultModelOnce sync.Once
	defaultModel     *CostModel
)

// DefaultCostModel returns a process-wide cost model, calibrating it on
// first use (a few milliseconds of probing).
func DefaultCostModel() *CostModel {
	defaultModelOnce.Do(func() { defaultModel = Calibrate() })
	return defaultModel
}

// streamFootprintBytes approximates the private cache capacity past which
// the Bᵀ operand streams from shared cache or DRAM. 1 MiB matches common
// server L2 sizes; the exact constant only shifts where the two measured
// rates switch, and the rates themselves are machine-probed.
const streamFootprintBytes = 1 << 20

// Calibrate measures kernel throughput with short probes and returns a
// fresh model.
func Calibrate() *CostModel {
	rng := rand.New(rand.NewSource(0x5eed))
	build := func(rows, cols int) *BitMatrix {
		m := NewBitMatrix(rows, cols)
		for i := 0; i < rows; i++ {
			for j := 0; j < cols; j += 1 + rng.Intn(4) {
				m.Set(i, j)
			}
		}
		return m
	}

	// Cache-resident probe: Bᵀ = 256×4096 bits = 128 KiB, well inside L2,
	// with enough rows to exercise the full 4-row register blocks.
	const (
		smallRows = 256
		smallCols = 4096
	)
	constructStart := time.Now()
	a := build(smallRows, smallCols)
	b := build(smallRows, smallCols)
	constructDur := time.Since(constructStart)

	start := time.Now()
	reps := 0
	for time.Since(start) < 4*time.Millisecond {
		_ = MulBitCount(a, b, 1)
		reps++
	}
	mulDur := time.Since(start)
	words := float64((smallCols + 63) / 64)
	wops := float64(smallRows) * float64(smallRows) * words * float64(reps) / mulDur.Seconds()
	if wops <= 0 || math.IsNaN(wops) || math.IsInf(wops, 0) {
		wops = 1e9
	}

	// Streaming probe: a thin A against a Bᵀ of ~2 MiB, so every j-tile
	// pass refetches Bᵀ from beyond the private caches. Rectangular on
	// purpose — it measures Bᵀ traffic, not arithmetic, at ~1/8 the probe
	// cost of a square instance.
	const (
		streamARows = 128
		streamBRows = 2048
		streamCols  = 8192
	)
	sa := build(streamARows, streamCols)
	sb := build(streamBRows, streamCols)
	streamDur := time.Duration(math.MaxInt64)
	for trial := 0; trial < 3; trial++ {
		// Best of three: a single preempted run would pin the streaming
		// rate low for the whole process and misplace the MM crossover.
		start := time.Now()
		_ = MulBitCount(sa, sb, 1)
		if d := time.Since(start); d < streamDur {
			streamDur = d
		}
	}
	streamWords := float64((streamCols + 63) / 64)
	swops := float64(streamARows) * float64(streamBRows) * streamWords / streamDur.Seconds()
	if swops <= 0 || math.IsNaN(swops) || math.IsInf(swops, 0) || swops > wops {
		swops = wops
	}

	cells := 2 * float64(smallRows) * float64(smallCols)
	cops := cells / constructDur.Seconds()
	if cops <= 0 || math.IsNaN(cops) || math.IsInf(cops, 0) {
		cops = 1e9
	}
	return &CostModel{
		WordOpsPerSec:       wops,
		WordOpsPerSecStream: swops,
		StreamFootprint:     streamFootprintBytes,
		CellOpsPerSec:       cops,
		ParallelEff:         0.85,
	}
}

func (cm *CostModel) speedup(cores int) float64 {
	if cores <= 1 {
		return 1
	}
	return 1 + cm.ParallelEff*float64(cores-1)
}

// wordRate returns the throughput regime for a product whose Bᵀ operand has
// w rows of ceil(v/64) words.
func (cm *CostModel) wordRate(v, w int64) float64 {
	rate := cm.WordOpsPerSec
	if cm.WordOpsPerSecStream > 0 && cm.StreamFootprint > 0 {
		if float64(w)*float64((v+63)/64)*8 > cm.StreamFootprint {
			rate = cm.WordOpsPerSecStream
		}
	}
	if rate <= 0 {
		rate = 1e9
	}
	return rate
}

// EstimateMul returns M̂(u,v,w,co): the predicted time to multiply a u×v
// bit matrix by a (transposed) w×v bit matrix on co cores.
func (cm *CostModel) EstimateMul(u, v, w int64, cores int) time.Duration {
	if u <= 0 || v <= 0 || w <= 0 {
		return 0
	}
	words := float64((v + 63) / 64)
	ops := float64(u) * float64(w) * words
	secs := ops / (cm.wordRate(v, w) * cm.speedup(cores))
	return time.Duration(secs * float64(time.Second))
}

// EstimateConstruct returns the predicted time to materialize the two
// operand matrices (u×v and w×v), the C term of Equation (1).
func (cm *CostModel) EstimateConstruct(u, v, w int64) time.Duration {
	cells := float64(u+w) * float64(v)
	if cells <= 0 {
		return 0
	}
	secs := cells / cm.CellOpsPerSec
	return time.Duration(secs * float64(time.Second))
}

// Table is the paper's precomputed M̂ lookup table: measured multiply times
// for square p×p×p instances at several core counts (Section 5, "Matrix
// multiplication cost"). cmd/mmcalib prints it beside the CostModel the
// planner prices products with.
type Table struct {
	Ps      []int
	Cores   []int
	Entries map[[2]int]time.Duration // (p, cores) → measured time
}

// BuildTable measures MulBitCount on random p×p operands for every
// (p, cores) combination. Used by cmd/mmcalib; probe sizes are chosen by the
// caller so tests can keep this fast.
func BuildTable(ps, cores []int) *Table {
	t := &Table{Ps: ps, Cores: cores, Entries: map[[2]int]time.Duration{}}
	rng := rand.New(rand.NewSource(17))
	for _, p := range ps {
		a := NewBitMatrix(p, p)
		b := NewBitMatrix(p, p)
		for i := 0; i < p; i++ {
			for j := 0; j < p; j += 1 + rng.Intn(4) {
				a.Set(i, j)
				b.Set(i, (j+i)%p)
			}
		}
		for _, co := range cores {
			start := time.Now()
			_ = MulBitCount(a, b, co)
			t.Entries[[2]int{p, co}] = time.Since(start)
		}
	}
	return t
}
