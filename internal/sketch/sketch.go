// Package sketch implements the cardinality estimators the paper's future-
// work section proposes for join-project size estimation: KMV (k minimum
// values) and HyperLogLog.
//
// Section 5 estimates |OUT| from coarse bounds (the geometric-mean rule);
// Section 9 suggests refining this "by modifying estimators for set union
// and set intersection such as KMV and HyperLogLog". The refinement
// implemented here streams the full join once, feeding each projected pair
// into a sketch: the result is an ε-approximation of |OUT| in O(|OUT⋈|)
// time and O(k) (or O(2^p)) memory — in contrast to exact deduplication,
// which needs Ω(|OUT|) memory. The optimizer uses it when the full join is
// small enough to afford the scan (optimizer.PlanTwoPath's sketchBudget).
package sketch

import (
	"math"
	"sort"
)

// hash64 is SplitMix64: a fixed, high-quality 64-bit mixer, so sketches are
// deterministic across processes (required for mergeability and tests).
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

// KMV is a k-minimum-values sketch for distinct counting. It keeps the k
// smallest hash values seen; the estimate is (k−1)/kthMin (scaled to the
// unit interval).
type KMV struct {
	k    int
	heap []uint64 // max-heap of the k smallest hashes
	seen map[uint64]struct{}
}

// NewKMV returns a KMV sketch with parameter k (typical: 256–4096;
// standard error ≈ 1/√k).
func NewKMV(k int) *KMV {
	if k < 2 {
		k = 2
	}
	return &KMV{k: k, seen: make(map[uint64]struct{}, k)}
}

// Add inserts one element.
func (s *KMV) Add(v uint64) {
	h := hash64(v)
	if len(s.heap) == s.k && h >= s.heap[0] {
		return
	}
	if _, dup := s.seen[h]; dup {
		return
	}
	if len(s.heap) < s.k {
		s.seen[h] = struct{}{}
		s.heap = append(s.heap, h)
		s.siftUp(len(s.heap) - 1)
		return
	}
	delete(s.seen, s.heap[0])
	s.seen[h] = struct{}{}
	s.heap[0] = h
	s.siftDown(0)
}

func (s *KMV) siftUp(i int) {
	for i > 0 {
		p := (i - 1) / 2
		if s.heap[p] >= s.heap[i] {
			return
		}
		s.heap[p], s.heap[i] = s.heap[i], s.heap[p]
		i = p
	}
}

func (s *KMV) siftDown(i int) {
	n := len(s.heap)
	for {
		l, r := 2*i+1, 2*i+2
		big := i
		if l < n && s.heap[l] > s.heap[big] {
			big = l
		}
		if r < n && s.heap[r] > s.heap[big] {
			big = r
		}
		if big == i {
			return
		}
		s.heap[i], s.heap[big] = s.heap[big], s.heap[i]
		i = big
	}
}

// Estimate returns the estimated number of distinct elements added.
func (s *KMV) Estimate() float64 {
	n := len(s.heap)
	if n < s.k {
		return float64(n) // fewer than k distinct: the sketch is exact
	}
	kth := float64(s.heap[0]) / float64(math.MaxUint64)
	if kth == 0 {
		return float64(n)
	}
	return float64(s.k-1) / kth
}

// Merge folds other into s (union semantics). Both sketches must share k.
func (s *KMV) Merge(other *KMV) {
	all := append(append([]uint64(nil), s.heap...), other.heap...)
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	s.heap = s.heap[:0]
	s.seen = make(map[uint64]struct{}, s.k)
	var last uint64
	first := true
	for _, h := range all {
		if !first && h == last {
			continue
		}
		last, first = h, false
		if _, dup := s.seen[h]; dup {
			continue
		}
		s.seen[h] = struct{}{}
		s.heap = append(s.heap, h)
		if len(s.heap) == s.k {
			break
		}
	}
	// Restore heap order (max-heap over the kept minima).
	sort.Slice(s.heap, func(i, j int) bool { return s.heap[i] > s.heap[j] })
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

// Merge folds other into h (register-wise max). Precisions must match.
func (h *HLL) Merge(other *HLL) {
	for i, r := range other.regs {
		if r > h.regs[i] {
			h.regs[i] = r
		}
	}
}
