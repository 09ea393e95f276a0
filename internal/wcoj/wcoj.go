// Package wcoj holds the worst-case optimal join machinery every layer
// shares: the leapfrog intersection, the variable-at-a-time extension over
// binary atoms (Plan, Search — the one backtracking join behind cyclic bag
// materialization in internal/query, small-delta view maintenance in
// internal/view and the star enumeration here), and the star-query helpers
// built on them.
//
// A star query Q★k(x1..xk) = R1(x1,y), ..., Rk(xk,y) joins every relation on
// the single shared variable y, so the generic worst-case optimal strategy
// (Ngo et al., Veldhuizen) specializes to: intersect the y-domains of all
// relations with a leapfrog-style k-way merge, and for each surviving y emit
// the cross product of the per-relation x-lists. The enumeration runs in
// time O(Σ N_i + |OUT⋈|), which is worst-case optimal for this query class
// (Proposition 1 of the paper), and is the building block both for the light
// partitions of Algorithm 1 and for the full-join baselines.
package wcoj

import (
	"slices"

	"repro/internal/relation"
)

// IntersectK returns the values present in every ascending list. The
// argument is left unchanged.
func IntersectK(lists [][]int32) []int32 {
	if len(lists) == 0 {
		return nil
	}
	var out []int32
	leapfrog(slices.Clone(lists), func(v int32) bool {
		out = append(out, v)
		return true
	})
	return out
}

// leapfrog yields, ascending, every value present in all of the (≥ 1)
// ascending lists until yield returns false, and reports whether it ran to
// the end. The shortest list drives; the others are sought to each candidate
// with galloping search, advancing their slice headers in lists — the caller
// passes scratch it owns.
func leapfrog(lists [][]int32, yield func(int32) bool) bool {
	smallest := 0
	for i, l := range lists {
		if len(l) < len(lists[smallest]) {
			smallest = i
		}
	}
outer:
	for _, v := range lists[smallest] {
		for i, l := range lists {
			if i == smallest {
				continue
			}
			j := gallop(l, v)
			if j == len(l) {
				return true // this and all larger candidates miss list i
			}
			lists[i] = l[j:]
			if l[j] != v {
				continue outer
			}
		}
		if !yield(v) {
			return false
		}
	}
	return true
}

// gallop returns the smallest index j with l[j] >= v, using exponential then
// binary search — the standard leapfrog seek.
func gallop(l []int32, v int32) int {
	if len(l) == 0 || l[0] >= v {
		return 0
	}
	hi := 1
	for hi < len(l) && l[hi] < v {
		hi <<= 1
	}
	lo := hi >> 1
	if hi > len(l) {
		hi = len(l)
	}
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if l[mid] < v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// JoinVisitor receives, for each join value y in the intersection of all
// y-domains, the per-relation sorted x-lists. Lists alias relation storage
// and must not be modified.
type JoinVisitor func(y int32, lists [][]int32)

// EnumerateJoin drives the star join: it intersects the y-domains of all
// relations and invokes visit once per surviving y. This is the O(Σ N_i)
// skeleton on top of which callers enumerate (or count, or filter) the cross
// products.
func EnumerateJoin(rels []*relation.Relation, visit JoinVisitor) {
	if len(rels) == 0 {
		return
	}
	domains := make([][]int32, len(rels))
	for i, r := range rels {
		domains[i] = r.ByY().Keys()
	}
	ys := IntersectK(domains)
	lists := make([][]int32, len(rels))
	for _, y := range ys {
		ok := true
		for i, r := range rels {
			lists[i] = r.ByY().Lookup(y)
			if len(lists[i]) == 0 {
				ok = false
				break
			}
		}
		if ok {
			visit(y, lists)
		}
	}
}

// TupleVisitor receives one full join tuple: the join value y and the
// projected variables xs (xs[i] comes from relation i). xs is reused across
// calls and must not be retained.
type TupleVisitor func(y int32, xs []int32)

// ForEachFullTuple enumerates every tuple of the full star join
// R1 ⋈ ... ⋈ Rk (before projection), in time proportional to the join size.
func ForEachFullTuple(rels []*relation.Relation, fn TupleVisitor) {
	k := len(rels)
	if k == 0 {
		return
	}
	// Variable 0 is y, variable 1+i is relation i's x.
	atoms := make([][2]int, k)
	free := make([]int, k+1) // free[0] = 0: y
	keys := make([][]int32, k)
	for i, r := range rels {
		atoms[i] = [2]int{1 + i, 0}
		free[1+i] = 1 + i
		keys[i] = r.ByY().Keys()
	}
	ys := IntersectK(keys)
	if len(ys) == 0 {
		return
	}
	search := NewPlan(atoms, nil, free).Search(rels, [][]int32{ys}, nil, func(assign []int32) bool {
		fn(assign[0], assign[1:])
		return true
	})
	_ = search.Run(make([]int32, k+1)) // no poll, so no error
}

// Project2Path computes π_{x,z}(R ⋈ S) — full enumeration followed by
// hash deduplication. It is the simple WCOJ+dedup plan the optimizer falls
// back to when the full join is not much larger than the input
// (Algorithm 3, line 2).
func Project2Path(r, s *relation.Relation) [][2]int32 {
	seen := make(map[[2]int32]struct{})
	EnumerateJoin([]*relation.Relation{r, s}, func(y int32, lists [][]int32) {
		for _, x := range lists[0] {
			for _, z := range lists[1] {
				seen[[2]int32{x, z}] = struct{}{}
			}
		}
	})
	out := make([][2]int32, 0, len(seen))
	for p := range seen {
		out = append(out, p)
	}
	return out
}

// Project2PathCounts computes the projected result together with witness
// counts: for every output pair (x, z), the number of y values connecting
// them. This is the counting variant used by set similarity.
func Project2PathCounts(r, s *relation.Relation) map[[2]int32]int32 {
	counts := make(map[[2]int32]int32)
	EnumerateJoin([]*relation.Relation{r, s}, func(y int32, lists [][]int32) {
		for _, x := range lists[0] {
			for _, z := range lists[1] {
				counts[[2]int32{x, z}]++
			}
		}
	})
	return counts
}

// ProjectStar computes the projected star join π_{x1..xk}(R1 ⋈ ... ⋈ Rk)
// with hash deduplication. Tuples are returned as k-length slices.
func ProjectStar(rels []*relation.Relation) [][]int32 {
	k := len(rels)
	seen := make(map[string]struct{})
	var out [][]int32
	key := make([]byte, 4*k)
	ForEachFullTuple(rels, func(y int32, xs []int32) {
		for i, v := range xs {
			putInt32(key[4*i:], v)
		}
		sk := string(key)
		if _, ok := seen[sk]; !ok {
			seen[sk] = struct{}{}
			cp := make([]int32, k)
			copy(cp, xs)
			out = append(out, cp)
		}
	})
	return out
}

func putInt32(b []byte, v int32) {
	b[0] = byte(v)
	b[1] = byte(v >> 8)
	b[2] = byte(v >> 16)
	b[3] = byte(v >> 24)
}
