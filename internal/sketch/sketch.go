// Package sketch implements the HyperLogLog cardinality estimator the
// paper's future-work section proposes for join-project size estimation.
//
// Section 5 estimates |OUT| from coarse bounds (the geometric-mean rule);
// Section 9 suggests refining this "by modifying estimators for set union
// and set intersection such as KMV and HyperLogLog". The refinement
// implemented here streams the full join once, feeding each projected pair
// into a sketch: the result is an ε-approximation of |OUT| in O(|OUT⋈|)
// time and O(2^p) memory — in contrast to exact deduplication, which needs
// Ω(|OUT|) memory. The optimizer uses it when the full join is
// small enough to afford the scan (optimizer.PlanTwoPath's sketchBudget).
package sketch

import "math"

// hash64 is SplitMix64: a fixed, high-quality 64-bit mixer, so sketches are
// deterministic across processes (required for reproducible plans and tests).
func hash64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// PairKey packs a projected output pair for sketching.
func PairKey(x, z int32) uint64 {
	return uint64(uint32(x))<<32 | uint64(uint32(z))
}

// HLL is a HyperLogLog sketch with 2^p registers.
type HLL struct {
	p    uint8
	regs []uint8
}

// NewHLL returns an HLL with precision p ∈ [4, 16] (standard error
// ≈ 1.04/√2^p).
func NewHLL(p uint8) *HLL {
	if p < 4 {
		p = 4
	}
	if p > 16 {
		p = 16
	}
	return &HLL{p: p, regs: make([]uint8, 1<<p)}
}

// Add inserts one element.
func (h *HLL) Add(v uint64) {
	x := hash64(v)
	idx := x >> (64 - h.p)
	rest := x<<h.p | 1<<(h.p-1) // ensure termination
	rank := uint8(1)
	for rest&(1<<63) == 0 {
		rank++
		rest <<= 1
	}
	if rank > h.regs[idx] {
		h.regs[idx] = rank
	}
}

// Estimate returns the estimated number of distinct elements, with the
// standard small-range (linear counting) correction.
func (h *HLL) Estimate() float64 {
	m := float64(len(h.regs))
	var sum float64
	zeros := 0
	for _, r := range h.regs {
		sum += 1 / float64(uint64(1)<<r)
		if r == 0 {
			zeros++
		}
	}
	alpha := 0.7213 / (1 + 1.079/m)
	e := alpha * m * m / sum
	if e <= 2.5*m && zeros > 0 {
		return m * math.Log(m/float64(zeros)) // linear counting
	}
	return e
}
