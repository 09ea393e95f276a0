// Package wcoj implements a worst-case optimal join for star queries.
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

// IntersectK returns the values present in every ascending list, using an
// iterative leapfrog: seek each list to the current candidate with galloping
// search, restarting the round whenever a list overshoots. The argument is
// left unchanged.
func IntersectK(lists [][]int32) []int32 {
	if len(lists) == 0 {
		return nil
	}
	if len(lists) == 1 {
		out := make([]int32, len(lists[0]))
		copy(out, lists[0])
		return out
	}
	// The seek positions advance on a private copy of the slice headers.
	lists = slices.Clone(lists)
	// Order by length so the smallest list drives.
	smallest := 0
	for i, l := range lists {
		if len(l) < len(lists[smallest]) {
			smallest = i
		}
	}
	var out []int32
outer:
	for _, v := range lists[smallest] {
		for i, l := range lists {
			if i == smallest {
				continue
			}
			j := gallop(l, v)
			if j == len(l) {
				break outer // this and all larger candidates miss list i
			}
			lists[i] = l[j:]
			if l[j] != v {
				continue outer
			}
		}
		out = append(out, v)
	}
	return out
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
	xs := make([]int32, k)
	EnumerateJoin(rels, func(y int32, lists [][]int32) {
		crossProduct(lists, xs, 0, func() { fn(y, xs) })
	})
}

// crossProduct enumerates the cross product of lists into xs, calling emit
// for each combination.
func crossProduct(lists [][]int32, xs []int32, depth int, emit func()) {
	if depth == len(lists) {
		emit()
		return
	}
	for _, v := range lists[depth] {
		xs[depth] = v
		crossProduct(lists, xs, depth+1, emit)
	}
}

// CountFullJoin returns the full join size by summing degree products,
// matching relation.FullJoinSize but via the enumeration skeleton (used to
// cross-check the two in tests).
func CountFullJoin(rels []*relation.Relation) int64 {
	var total int64
	EnumerateJoin(rels, func(y int32, lists [][]int32) {
		prod := int64(1)
		for _, l := range lists {
			prod *= int64(len(l))
		}
		total += prod
	})
	return total
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
