package ssj

import (
	"slices"
	"sync"

	"repro/internal/par"
	"repro/internal/relation"
	"repro/internal/tuples"
)

// GetSizeBoundary chooses the size threshold x of Algorithm 2: sets of size
// ≥ x are heavy. Following Deng et al., the boundary balances the estimated
// cost of the two phases: heavy sets pay one inverted-index sweep each
// (Σ_{e∈h} |L[e]|), light sets pay c-subset generation (≈ C(|r|, c)·c).
// The candidate boundaries are the distinct set sizes; both costs are
// evaluated with prefix sums, so the search is O(m log m).
func GetSizeBoundary(f *family, c int) int {
	m := len(f.ids)
	if m == 0 {
		return 1
	}
	// sweepCost[i] = Σ_{e ∈ sets[i]} |L[e]|.
	sweep := make([]float64, m)
	for i, set := range f.sets {
		var s float64
		for _, e := range set {
			s += float64(len(f.inv[e]))
		}
		sweep[i] = s
	}
	genCost := make([]float64, m)
	for i, sz := range f.sizes {
		genCost[i] = subsetGenCost(sz, c)
	}
	order := make([]int, m)
	for i := range order {
		order[i] = i
	}
	slices.SortFunc(order, func(a, b int) int { return f.sizes[a] - f.sizes[b] })

	// Prefix sums in size order: light cost grows with the boundary, heavy
	// cost shrinks.
	totalSweep := 0.0
	for _, s := range sweep {
		totalSweep += s
	}
	bestX, bestCost := 1, totalSweep // boundary 1: everything heavy
	lightSoFar := 0.0
	heavyLeft := totalSweep
	for k := 0; k < m; k++ {
		i := order[k]
		lightSoFar += genCost[i]
		heavyLeft -= sweep[i]
		// Boundary just above this set's size.
		x := f.sizes[i] + 1
		if k+1 < m && f.sizes[order[k+1]] == f.sizes[i] {
			continue // only evaluate at distinct sizes
		}
		cost := lightSoFar + heavyLeft
		if cost < bestCost {
			bestCost, bestX = cost, x
		}
	}
	return bestX
}

// subsetGenCost approximates C(size, c)·c without overflowing.
func subsetGenCost(size, c int) float64 {
	if size < c {
		return 0
	}
	cost := 1.0
	for i := 0; i < c; i++ {
		cost *= float64(size-i) / float64(i+1)
		if cost > 1e15 {
			return 1e15
		}
	}
	return cost * float64(c)
}

// SizeAware runs Algorithm 2, the baseline of Deng et al.: heavy sets sweep
// the inverted index counting overlaps against every set; light sets
// enumerate c-subsets and pair up within subset buckets.
func SizeAware(rel *relation.Relation, c int, opt Options) []Pair {
	if c < 1 {
		c = 1
	}
	f := newFamily(rel)
	x := GetSizeBoundary(f, c)
	res := newPairSink(len(f.ids))
	sizeAwareHeavy(f, c, x, opt.Workers, res, nil)
	sizeAwareLight(f, c, x, res)
	return res.pairs()
}

// pairSink deduplicates emitted position pairs.
type pairSink struct {
	mu   sync.Mutex
	seen map[uint64]struct{}
	out  []Pair
}

func newPairSink(capHint int) *pairSink {
	return &pairSink{seen: make(map[uint64]struct{}, capHint)}
}

func (ps *pairSink) add(p Pair) {
	key := uint64(uint32(p.A))<<32 | uint64(uint32(p.B))
	ps.mu.Lock()
	if _, ok := ps.seen[key]; !ok {
		ps.seen[key] = struct{}{}
		ps.out = append(ps.out, p)
	}
	ps.mu.Unlock()
}

func (ps *pairSink) pairs() []Pair { return ps.out }

// sizeAwareHeavy emits every similar pair involving a heavy set: for each
// heavy set, one counting sweep over the inverted lists of its elements.
// Heavy–heavy pairs are emitted once (from the larger position); heavy–light
// pairs are found only here. If onlyAgainst is non-nil, partners are
// restricted to positions where onlyAgainst[pos] is true (used by tests).
func sizeAwareHeavy(f *family, c, x, workers int, sink *pairSink, onlyAgainst []bool) {
	m := len(f.ids)
	var heavyPos []int32
	for i := 0; i < m; i++ {
		if f.sizes[i] >= x {
			heavyPos = append(heavyPos, int32(i))
		}
	}
	par.ForChunks(len(heavyPos), workers, func(lo, hi int) {
		cnt := make([]int32, m)
		touched := make([]int32, 0, m)
		for k := lo; k < hi; k++ {
			h := heavyPos[k]
			touched = touched[:0]
			for _, e := range f.sets[h] {
				for _, p := range f.inv[e] {
					if cnt[p] == 0 {
						touched = append(touched, p)
					}
					cnt[p]++
				}
			}
			for _, p := range touched {
				n := cnt[p]
				cnt[p] = 0
				if p == h || n < int32(c) {
					continue
				}
				if onlyAgainst != nil && !onlyAgainst[p] {
					continue
				}
				if f.sizes[p] >= x && p > h {
					continue // heavy-heavy pair counted from the larger pos
				}
				sink.add(f.normalize(h, p))
			}
		}
	})
}

// forEachCSubset enumerates all c-subsets of set, invoking fn with a reused
// buffer.
func forEachCSubset(set []int32, c int, fn func(subset []int32)) {
	if c > len(set) {
		return
	}
	idx := make([]int, c)
	subset := make([]int32, c)
	var rec func(start, depth int)
	rec = func(start, depth int) {
		if depth == c {
			fn(subset)
			return
		}
		for i := start; i <= len(set)-(c-depth); i++ {
			idx[depth] = i
			subset[depth] = set[i]
			rec(i+1, depth+1)
		}
	}
	rec(0, 0)
}

// sizeAwareLight pairs light sets through the c-subset inverted index
// (Algorithm 2 lines 4–8): two light sets are similar iff they share a
// c-subset.
func sizeAwareLight(f *family, c, x int, sink *pairSink) {
	subsets := tuples.NewTable(c)
	var buckets [][]int32 // by subset ordinal: the light sets containing it
	for i := 0; i < len(f.ids); i++ {
		if f.sizes[i] >= x {
			continue
		}
		forEachCSubset(f.sets[i], c, func(subset []int32) {
			m, fresh := subsets.Insert(subset)
			if fresh {
				buckets = append(buckets, nil)
			}
			// Pair the new set with everything already in the bucket
			// (line 8); the sink deduplicates pairs discovered through
			// multiple shared subsets.
			for _, j := range buckets[m] {
				sink.add(f.normalize(int32(i), j))
			}
			buckets[m] = append(buckets[m], int32(i))
		})
	}
}
