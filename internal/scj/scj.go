// Package scj implements set containment joins (Sections 4 and 7.4): find
// all ordered pairs of sets (a, b), a ≠ b, with set(a) ⊆ set(b).
//
// Four algorithms, matching the paper's experimental lineup:
//
//   - PRETTI — prefix tree over the sets under the infrequent-element-first
//     global order, with inverted-list intersections shared along common
//     prefixes: a set is contained in exactly the intersection of its
//     elements' inverted lists.
//   - LimitPlus (LIMIT+) — intersect only the `limit` least frequent
//     elements' lists (the blocking filter), then verify each candidate
//     with a merge-based containment check.
//   - PIEJoin — trie-based join: a trie over the container sets is searched
//     recursively for each probe set, skipping container elements that the
//     probe does not constrain; parallelized by partitioning the probes.
//   - MMJoin — the paper's approach: the counting join-project is a
//     superset of the containment join, and (a ⊆ b) ⟺ |a ∩ b| = |a|, so
//     filtering the 2-path counts yields the result directly.
//
// All joins are self joins over a relation R(set, element), as in the
// paper's experiments.
package scj

import (
	"cmp"
	"slices"

	"repro/internal/joinproject"
	"repro/internal/par"
	"repro/internal/relation"
)

// Pair is one containment: set Sub is contained in set Sup.
type Pair struct {
	Sub, Sup int32
}

// Options configures an SCJ evaluation.
type Options struct {
	// Workers bounds parallelism (≤ 0: all cores).
	Workers int
	// Limit is the number of inverted lists LIMIT+ intersects before
	// verification; the paper's experiments use 2.
	Limit int
}

// family indexes the sets with elements re-ranked by ascending frequency
// (the "infrequent sort order" used by all SCJ algorithms in Section 7.4).
type family struct {
	ids   []int32
	sets  [][]int32 // element ranks, ascending per set
	sizes []int
	inv   [][]int32 // rank → sorted set positions containing it
}

func newFamily(r *relation.Relation) *family {
	ix, iy := r.ByX(), r.ByY()
	// Rank elements by ascending frequency, ties by value.
	type ef struct {
		e    int32
		freq int
	}
	els := make([]ef, iy.NumKeys())
	for i := 0; i < iy.NumKeys(); i++ {
		els[i] = ef{iy.Key(i), iy.Degree(i)}
	}
	slices.SortFunc(els, func(a, b ef) int {
		if a.freq != b.freq {
			return cmp.Compare(a.freq, b.freq)
		}
		return cmp.Compare(a.e, b.e)
	})
	rank := make(map[int32]int32, len(els))
	for i, x := range els {
		rank[x.e] = int32(i)
	}
	f := &family{
		ids:   make([]int32, ix.NumKeys()),
		sets:  make([][]int32, ix.NumKeys()),
		sizes: make([]int, ix.NumKeys()),
		inv:   make([][]int32, len(els)),
	}
	for i := 0; i < ix.NumKeys(); i++ {
		f.ids[i] = ix.Key(i)
		list := ix.List(i)
		rs := make([]int32, len(list))
		for j, e := range list {
			rs[j] = rank[e]
		}
		slices.Sort(rs)
		f.sets[i] = rs
		f.sizes[i] = len(rs)
		for _, rk := range rs {
			f.inv[rk] = append(f.inv[rk], int32(i))
		}
	}
	return f
}

// PRETTI evaluates the containment join with prefix-tree-shared inverted
// list intersections.
func PRETTI(r *relation.Relation, opt Options) []Pair {
	f := newFamily(r)
	if len(f.ids) == 0 {
		return nil
	}
	// Prefix tree over rank sequences.
	root := &trieNode{rank: -1}
	for i := range f.sets {
		root.insert(f.sets[i], int32(i))
	}
	var out []Pair
	// DFS: the candidate list at a node is the intersection of the inverted
	// lists along its path; shared across every set below the node.
	var dfs func(n *trieNode, cands []int32)
	dfs = func(n *trieNode, cands []int32) {
		if n.rank >= 0 {
			if cands == nil {
				cands = f.inv[n.rank]
			} else {
				cands = relation.IntersectSorted(nil, cands, f.inv[n.rank])
			}
			if len(cands) == 0 {
				return
			}
		}
		for _, sub := range n.terminals {
			for _, sup := range cands {
				if sup != sub {
					out = append(out, Pair{Sub: f.ids[sub], Sup: f.ids[sup]})
				}
			}
		}
		for _, ch := range n.children {
			dfs(ch, cands)
		}
	}
	dfs(root, nil)
	return out
}

type trieNode struct {
	rank      int32
	children  []*trieNode
	childIdx  map[int32]int
	terminals []int32
}

func (n *trieNode) insert(seq []int32, pos int32) {
	node := n
	for _, rk := range seq {
		if node.childIdx == nil {
			node.childIdx = make(map[int32]int)
		}
		i, ok := node.childIdx[rk]
		if !ok {
			i = len(node.children)
			node.childIdx[rk] = i
			node.children = append(node.children, &trieNode{rank: rk})
		}
		node = node.children[i]
	}
	node.terminals = append(node.terminals, pos)
}

// LimitPlus evaluates the containment join with the LIMIT+ strategy:
// intersect the `limit` rarest elements' inverted lists as a blocking
// filter, then verify candidates by merge-based containment.
func LimitPlus(r *relation.Relation, opt Options) []Pair {
	limit := opt.Limit
	if limit < 1 {
		limit = 2
	}
	f := newFamily(r)
	var out []Pair
	for i := range f.sets {
		set := f.sets[i]
		if len(set) == 0 {
			continue
		}
		k := limit
		if k > len(set) {
			k = len(set)
		}
		// The sets are rank-sorted ascending = rarest first, so the filter
		// intersects the first k lists.
		cands := f.inv[set[0]]
		for j := 1; j < k; j++ {
			cands = relation.IntersectSorted(nil, cands, f.inv[set[j]])
			if len(cands) == 0 {
				break
			}
		}
		needVerify := k < len(set)
		for _, sup := range cands {
			if sup == int32(i) {
				continue
			}
			if needVerify && !relation.ContainsSorted(f.sets[sup], set) {
				continue
			}
			out = append(out, Pair{Sub: f.ids[i], Sup: f.ids[sup]})
		}
	}
	return out
}

// PIEJoin evaluates the containment join by searching a container-side trie
// for each probe set: at each trie node the search either matches the
// probe's next rank or skips a container element smaller than it. Probes
// are partitioned across workers (the paper's PIEJoin parallelizes by
// partitioning the search space; probe partitioning is the coordination-
// free equivalent).
func PIEJoin(r *relation.Relation, opt Options) []Pair {
	f := newFamily(r)
	if len(f.ids) == 0 {
		return nil
	}
	root := &trieNode{rank: -1}
	for i := range f.sets {
		root.insert(f.sets[i], int32(i))
	}
	// Euler tour so that "all terminals below node" is a slice range.
	tour, span := eulerTour(root)

	ranges := par.Ranges(len(f.sets), opt.Workers)
	results := make([][]Pair, len(ranges))
	par.ForChunks(len(f.sets), opt.Workers, func(lo, hi int) {
		slot := 0
		for i, rg := range ranges {
			if rg[0] == lo {
				slot = i
			}
		}
		var local []Pair
		for i := lo; i < hi; i++ {
			sub := int32(i)
			var search func(n *trieNode, rest []int32)
			search = func(n *trieNode, rest []int32) {
				if len(rest) == 0 {
					sp := span[n]
					for _, sup := range tour[sp[0]:sp[1]] {
						if sup != sub {
							local = append(local, Pair{Sub: f.ids[sub], Sup: f.ids[sup]})
						}
					}
					return
				}
				for _, ch := range n.children {
					switch {
					case ch.rank == rest[0]:
						search(ch, rest[1:])
					case ch.rank < rest[0]:
						// Container has an extra (more frequent... lower
						// rank) element; skip it and keep matching.
						search(ch, rest)
					}
					// ch.rank > rest[0]: rank-sorted sequences can never
					// produce rest[0] deeper in this subtree.
				}
			}
			search(root, f.sets[i])
		}
		results[slot] = local
	})
	var out []Pair
	for _, part := range results {
		out = append(out, part...)
	}
	return out
}

// eulerTour flattens the trie's terminals in DFS order and records each
// node's [start, end) range.
func eulerTour(root *trieNode) (tour []int32, span map[*trieNode][2]int) {
	span = make(map[*trieNode][2]int)
	var dfs func(n *trieNode)
	dfs = func(n *trieNode) {
		start := len(tour)
		tour = append(tour, n.terminals...)
		for _, ch := range n.children {
			dfs(ch)
		}
		span[n] = [2]int{start, len(tour)}
	}
	dfs(root)
	return tour, span
}

// MMJoin evaluates the containment join through the counting join-project:
// (a ⊆ b) ⟺ |a ∩ b| = |a|. The 2-path counts of Algorithm 1 deliver every
// intersecting pair with its exact overlap; one linear filter finishes the
// job (Section 4, "SCJ").
func MMJoin(r *relation.Relation, opt Options) []Pair {
	sizes := make(map[int32]int32, r.NumX())
	ix := r.ByX()
	for i := 0; i < ix.NumKeys(); i++ {
		sizes[ix.Key(i)] = int32(ix.Degree(i))
	}
	counts := joinproject.TwoPathCounts(r, r, joinproject.Options{Workers: opt.Workers}, true)
	var out []Pair
	for _, pc := range counts {
		if pc.X != pc.Z && pc.Count == sizes[pc.X] {
			out = append(out, Pair{Sub: pc.X, Sup: pc.Z})
		}
	}
	return out
}
