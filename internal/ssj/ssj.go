// Package ssj implements set similarity joins (Section 4 of the paper): find
// all pairs of sets whose intersection has size at least c.
//
// Three algorithms are provided, matching the paper's experimental lineup:
//
//   - SizeAware — the state-of-the-art baseline of Deng, Tao and Li
//     (Algorithm 2): a size boundary splits sets into heavy and light; heavy
//     sets join against everything through the inverted index, light sets
//     enumerate their c-subsets and pair up within subset buckets.
//   - SizeAwarePP (SizeAware++) — the paper's three optimizations layered on
//     SizeAware: the heavy join through the matrix-multiplication 2-path
//     (Light off/on knobs reproduce Figure 8's ablation), light-bucket
//     pairing through a join-project instead of brute-force bucket scans,
//     and prefix-tree materialization that shares inverted-list merges
//     across sets with common prefixes (Example 6).
//   - MMJoin — the counting 2-path of Algorithm 1 filtered to count ≥ c,
//     the paper's output-sensitive method.
//
// Sets are represented as a binary relation R(set, element); all joins here
// are self joins, as in the paper's experiments.
package ssj

import (
	"cmp"
	"container/heap"
	"slices"
	"sync"

	"repro/internal/joinproject"
	"repro/internal/relation"
)

// Pair is an unordered similar-set pair, normalized A < B.
type Pair struct {
	A, B int32
}

// ScoredPair carries the exact overlap, for the ordered variant.
type ScoredPair struct {
	A, B    int32
	Overlap int32
}

// Options configures an SSJ evaluation.
type Options struct {
	// Workers bounds parallelism (≤ 0: all cores).
	Workers int
	// Delta1/Delta2 override the join-project thresholds (0: automatic).
	Delta1, Delta2 int
}

// MMJoin returns all set pairs with |A ∩ B| ≥ c using the counting 2-path
// join of Algorithm 1.
func MMJoin(r *relation.Relation, c int, opt Options) []Pair {
	if c < 1 {
		c = 1
	}
	counts := joinproject.TwoPathMMCounts(r, r, joinproject.Options{
		Delta1: opt.Delta1, Delta2: opt.Delta2, Workers: opt.Workers,
	})
	out := make([]Pair, 0, len(counts)/2)
	for _, pc := range counts {
		if pc.X < pc.Z && pc.Count >= int32(c) {
			out = append(out, Pair{A: pc.X, B: pc.Z})
		}
	}
	return out
}

// MMJoinOrdered returns similar pairs sorted by decreasing overlap. The
// matrix-based join already produces exact counts, so ordering costs one
// sort — the advantage the paper highlights over SizeAware for ordered SSJ.
func MMJoinOrdered(r *relation.Relation, c int, opt Options) []ScoredPair {
	if c < 1 {
		c = 1
	}
	counts := joinproject.TwoPathMMCounts(r, r, joinproject.Options{
		Delta1: opt.Delta1, Delta2: opt.Delta2, Workers: opt.Workers,
	})
	out := make([]ScoredPair, 0, len(counts)/2)
	for _, pc := range counts {
		if pc.X < pc.Z && pc.Count >= int32(c) {
			out = append(out, ScoredPair{A: pc.X, B: pc.Z, Overlap: pc.Count})
		}
	}
	sortScored(out)
	return out
}

func sortScored(out []ScoredPair) {
	slices.SortFunc(out, func(a, b ScoredPair) int {
		if a.Overlap != b.Overlap {
			return cmp.Compare(b.Overlap, a.Overlap)
		}
		if a.A != b.A {
			return cmp.Compare(a.A, b.A)
		}
		return cmp.Compare(a.B, b.B)
	})
}

// family is the indexed family-of-sets view shared by the algorithms.
type family struct {
	ids   []int32           // set ids (x values), ascending
	sets  [][]int32         // sorted element lists, aligned with ids
	inv   map[int32][]int32 // element → positions of sets containing it
	sizes []int
}

func newFamily(r *relation.Relation) *family {
	ix := r.ByX()
	f := &family{
		ids:   make([]int32, ix.NumKeys()),
		sets:  make([][]int32, ix.NumKeys()),
		sizes: make([]int, ix.NumKeys()),
		inv:   make(map[int32][]int32, r.NumY()),
	}
	for i := 0; i < ix.NumKeys(); i++ {
		f.ids[i] = ix.Key(i)
		f.sets[i] = ix.List(i)
		f.sizes[i] = len(f.sets[i])
	}
	iy := r.ByY()
	for i := 0; i < iy.NumKeys(); i++ {
		e := iy.Key(i)
		members := iy.List(i)
		pos := make([]int32, len(members))
		for j, id := range members {
			pos[j] = int32(ix.Pos(id))
		}
		f.inv[e] = pos
	}
	return f
}

// normalize converts position pairs into id pairs with A < B.
func (f *family) normalize(i, j int32) Pair {
	a, b := f.ids[i], f.ids[j]
	if a > b {
		a, b = b, a
	}
	return Pair{A: a, B: b}
}

// TopK returns the k most similar set pairs with overlap ≥ c, in decreasing
// overlap order. Because the matrix-based join produces exact counts while
// streaming, only a bounded min-heap of k candidates is kept — "users see
// the most similar pairs first" without sorting (or even materializing) the
// full result.
func TopK(r *relation.Relation, c, k int, opt Options) []ScoredPair {
	if c < 1 {
		c = 1
	}
	if k <= 0 {
		return nil
	}
	var mu sync.Mutex
	h := make(scoredHeap, 0, k+1)
	joinproject.TwoPathMMVisit(r, r, joinproject.Options{
		Delta1: opt.Delta1, Delta2: opt.Delta2, Workers: opt.Workers,
	}, func(x, z, n int32) {
		if x >= z || n < int32(c) {
			return
		}
		mu.Lock()
		if len(h) < k {
			heap.Push(&h, ScoredPair{A: x, B: z, Overlap: n})
		} else if scoredLess(h[0], ScoredPair{A: x, B: z, Overlap: n}) {
			h[0] = ScoredPair{A: x, B: z, Overlap: n}
			heap.Fix(&h, 0)
		}
		mu.Unlock()
	})
	out := make([]ScoredPair, len(h))
	for i := len(h) - 1; i >= 0; i-- {
		out[i] = heap.Pop(&h).(ScoredPair)
	}
	return out
}

// scoredLess orders pairs by (overlap, then id) ascending — the heap keeps
// the weakest retained pair at the root.
func scoredLess(a, b ScoredPair) bool {
	if a.Overlap != b.Overlap {
		return a.Overlap < b.Overlap
	}
	if a.A != b.A {
		return a.A > b.A // larger ids are "weaker" so ties break like sortScored
	}
	return a.B > b.B
}

type scoredHeap []ScoredPair

func (h scoredHeap) Len() int            { return len(h) }
func (h scoredHeap) Less(i, j int) bool  { return scoredLess(h[i], h[j]) }
func (h scoredHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *scoredHeap) Push(x interface{}) { *h = append(*h, x.(ScoredPair)) }
func (h *scoredHeap) Pop() interface{} {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

// Tuple is a k-way similar tuple: k distinct sets whose common intersection
// has size at least c.
type Tuple struct {
	Sets    []int32 // ascending set ids
	Overlap int32   // |∩ of all k sets|
}

// KWaySimilar generalizes the similarity join to k ≥ 2 sets (the Section
// 2.1 generalization "to more than two relations"): it returns all k-tuples
// of distinct sets whose k-way intersection has at least c elements,
// evaluated as a counting star self-join Q★k. Tuples are normalized to
// ascending set ids.
func KWaySimilar(r *relation.Relation, k, c int, opt Options) []Tuple {
	if k < 2 {
		k = 2
	}
	if c < 1 {
		c = 1
	}
	rels := make([]*relation.Relation, k)
	for i := range rels {
		rels[i] = r
	}
	counts := joinproject.StarMMCounts(rels, joinproject.Options{
		Delta1: opt.Delta1, Delta2: opt.Delta2, Workers: opt.Workers,
	})
	var out []Tuple
	for _, tc := range counts {
		if tc.Count < int32(c) {
			continue
		}
		// Keep only strictly ascending tuples: one canonical orientation,
		// all sets distinct.
		ascending := true
		for i := 1; i < len(tc.Xs); i++ {
			if tc.Xs[i-1] >= tc.Xs[i] {
				ascending = false
				break
			}
		}
		if ascending {
			out = append(out, Tuple{Sets: tc.Xs, Overlap: tc.Count})
		}
	}
	slices.SortFunc(out, func(a, b Tuple) int {
		if a.Overlap != b.Overlap {
			return cmp.Compare(b.Overlap, a.Overlap)
		}
		return slices.Compare(a.Sets, b.Sets)
	})
	return out
}

// OrderPairs scores and sorts an unordered result — what SizeAware must do
// for ordered SSJ, since its light path never learns exact overlaps.
func OrderPairs(r *relation.Relation, pairs []Pair) []ScoredPair {
	ix := r.ByX()
	out := make([]ScoredPair, len(pairs))
	for i, p := range pairs {
		a := ix.Lookup(p.A)
		b := ix.Lookup(p.B)
		out[i] = ScoredPair{A: p.A, B: p.B, Overlap: int32(relation.IntersectCount(a, b))}
	}
	sortScored(out)
	return out
}
