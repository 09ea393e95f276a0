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
	"slices"

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
}

// MMJoin returns all set pairs with |A ∩ B| ≥ c using the counting 2-path
// join of Algorithm 1.
func MMJoin(r *relation.Relation, c int, opt Options) []Pair {
	if c < 1 {
		c = 1
	}
	counts := joinproject.TwoPathCounts(r, r, joinproject.Options{Workers: opt.Workers}, true)
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
	counts := joinproject.TwoPathCounts(r, r, joinproject.Options{Workers: opt.Workers}, true)
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
