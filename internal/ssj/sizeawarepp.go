package ssj

import (
	"slices"
	"sort"

	"repro/internal/joinproject"
	"repro/internal/relation"
	"repro/internal/tuples"
)

// PPOptions toggles the three SizeAware++ optimizations. The zero value
// (all false) degenerates to plain SizeAware — the NO-OP configuration of
// Figure 8; Heavy, Light and Prefix correspond to the figure's bars.
type PPOptions struct {
	Options
	// Heavy routes the heavy-set join R ⋈ Rh through the matrix-
	// multiplication 2-path instead of per-set inverted-index sweeps.
	Heavy bool
	// Light routes light-bucket pairing through a join-project on the
	// (set, c-subset) bipartite graph instead of brute-force bucket scans.
	Light bool
	// Prefix replaces light processing entirely with the prefix-tree
	// materialization of Example 6: inverted-list merges are shared across
	// sets with a common prefix under the global |L[b]|-descending order.
	Prefix bool
	// MaxPrefixDepth bounds the depth to which prefix sharing is
	// materialized (0 = unlimited), trading reuse for memory as in the
	// paper's discussion.
	MaxPrefixDepth int
}

// SizeAwarePP runs SizeAware++ with the selected optimizations.
func SizeAwarePP(rel *relation.Relation, c int, opt PPOptions) []Pair {
	if c < 1 {
		c = 1
	}
	f := newFamily(rel)
	x := GetSizeBoundary(f, c)
	sink := newPairSink(len(f.ids))

	if opt.Heavy {
		heavyViaMM(rel, f, c, x, opt, sink)
	} else {
		sizeAwareHeavy(f, c, x, opt.Workers, sink, nil)
	}

	switch {
	case opt.Prefix:
		prefixTreeLight(f, c, x, opt.MaxPrefixDepth, sink)
	case opt.Light:
		lightViaMM(f, c, x, opt, sink)
	default:
		sizeAwareLight(f, c, x, sink)
	}
	return sink.pairs()
}

// heavyViaMM computes every similar pair involving a heavy set by running
// the counting 2-path join R(set,e) ⋈ Rh(heavySet,e) with Algorithm 1 —
// the first SizeAware++ modification. Heavy–heavy pairs appear in both
// orientations; they are emitted once.
func heavyViaMM(rel *relation.Relation, f *family, c, x int, opt PPOptions, sink *pairSink) {
	var heavyPairs []relation.Pair
	heavy := make(map[int32]bool)
	for i, id := range f.ids {
		if f.sizes[i] >= x {
			heavy[id] = true
			for _, e := range f.sets[i] {
				heavyPairs = append(heavyPairs, relation.Pair{X: id, Y: e})
			}
		}
	}
	if len(heavyPairs) == 0 {
		return
	}
	rh := relation.FromPairs("heavy", heavyPairs)
	counts := joinproject.TwoPathCounts(rel, rh, joinproject.Options{Workers: opt.Workers}, true)
	for _, pc := range counts {
		if pc.Count < int32(c) || pc.X == pc.Z {
			continue
		}
		if heavy[pc.X] && pc.X > pc.Z {
			continue // heavy-heavy pair arrives in both orientations
		}
		a, b := pc.X, pc.Z
		if a > b {
			a, b = b, a
		}
		sink.add(Pair{A: a, B: b})
	}
}

// lightViaMM pairs light sets through a join-project on the bipartite
// (set, c-subset) graph — the second SizeAware++ modification: two light
// sets are similar iff they share a c-subset, which is exactly a 2-path
// through the subset vertex.
func lightViaMM(f *family, c, x int, opt PPOptions, sink *pairSink) {
	subsets := tuples.NewTable(c) // a subset's vertex id is its ordinal
	var bp []relation.Pair
	for i := 0; i < len(f.ids); i++ {
		if f.sizes[i] >= x {
			continue
		}
		forEachCSubset(f.sets[i], c, func(subset []int32) {
			id, _ := subsets.Insert(subset)
			bp = append(bp, relation.Pair{X: f.ids[i], Y: int32(id)})
		})
	}
	if len(bp) == 0 {
		return
	}
	b := relation.FromPairs("subsets", bp)
	pairs := joinproject.TwoPathGroups(b, b, joinproject.Options{Workers: opt.Workers}, true).Pairs()
	for _, p := range pairs {
		if p[0] < p[1] {
			sink.add(Pair{A: p[0], B: p[1]})
		}
	}
}

// prefixNode is one trie node of the prefix-tree materialization.
type prefixNode struct {
	elem      int32
	root      bool // the sentinel root carries no element
	children  []*prefixNode
	childIdx  map[int64]int // key: element (or element⊕set beyond depth cap)
	terminals []int32       // set positions ending at this node
}

func (n *prefixNode) child(key int64, elem int32) *prefixNode {
	if n.childIdx == nil {
		n.childIdx = make(map[int64]int)
	}
	if i, ok := n.childIdx[key]; ok {
		return n.children[i]
	}
	c := &prefixNode{elem: elem}
	n.childIdx[key] = len(n.children)
	n.children = append(n.children, c)
	return c
}

// prefixTreeLight implements the Example-6 optimization. Elements are
// globally ordered by decreasing light-inverted-list length (big lists
// first, maximizing reuse); light sets are inserted into a trie under that
// order; and a single DFS merges each distinct prefix exactly once,
// maintaining shared overlap counters with an at-least-c index so that
// terminal nodes enumerate their similar partners in output-sensitive time.
func prefixTreeLight(f *family, c, x, maxDepth int, sink *pairSink) {
	m := len(f.ids)
	// Light-only inverted index.
	lightInv := make(map[int32][]int32)
	lightCount := 0
	for i := 0; i < m; i++ {
		if f.sizes[i] >= x {
			continue
		}
		lightCount++
		for _, e := range f.sets[i] {
			lightInv[e] = append(lightInv[e], int32(i))
		}
	}
	if lightCount == 0 {
		return
	}
	// Global order: |L[e]| descending, element ascending to break ties.
	rank := make(map[int32]int32, len(lightInv))
	{
		type el struct {
			e   int32
			len int
		}
		els := make([]el, 0, len(lightInv))
		for e, l := range lightInv {
			els = append(els, el{e, len(l)})
		}
		sort.Slice(els, func(a, b int) bool {
			if els[a].len != els[b].len {
				return els[a].len > els[b].len
			}
			return els[a].e < els[b].e
		})
		for i, x := range els {
			rank[x.e] = int32(i)
		}
	}
	// Build the trie.
	root := &prefixNode{root: true}
	seq := make([]int32, 0, 64)
	for i := 0; i < m; i++ {
		if f.sizes[i] >= x {
			continue
		}
		seq = seq[:0]
		seq = append(seq, f.sets[i]...)
		slices.SortFunc(seq, func(a, b int32) int { return int(rank[a]) - int(rank[b]) })
		node := root
		for depth, e := range seq {
			// Zero-extend so negative element values cannot collide with
			// the set-id tag in the high word.
			key := int64(uint32(e))
			if maxDepth > 0 && depth >= maxDepth {
				// Beyond the materialization depth, stop sharing: give this
				// set a private chain (the paper's space/reuse trade-off).
				key |= int64(i+1) << 32
			}
			node = node.child(key, e)
		}
		node.terminals = append(node.terminals, int32(i))
	}
	// DFS with shared counters.
	cnt := make([]int32, m)
	atLeastC := make(map[int32]struct{})
	var dfs func(n *prefixNode)
	dfs = func(n *prefixNode) {
		if !n.root {
			for _, p := range lightInv[n.elem] {
				cnt[p]++
				if cnt[p] == int32(c) {
					atLeastC[p] = struct{}{}
				}
			}
		}
		for _, a := range n.terminals {
			for p := range atLeastC {
				if p != a {
					sink.add(f.normalize(a, p))
				}
			}
		}
		for _, ch := range n.children {
			dfs(ch)
		}
		if !n.root {
			for _, p := range lightInv[n.elem] {
				if cnt[p] == int32(c) {
					delete(atLeastC, p)
				}
				cnt[p]--
			}
		}
	}
	dfs(root)
}
