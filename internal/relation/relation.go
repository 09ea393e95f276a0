// Package relation implements the storage layer of the join-project engine:
// in-memory binary relations R(x,y) indexed by both columns.
//
// Following Section 5 of the paper ("Indexing relations"), every relation is
// stored once per index order: a CSR-style index keyed by x with sorted y
// lists, and the mirror index keyed by y with sorted x lists. The package
// also provides the linear preprocessing steps the algorithms assume:
// semi-join reduction (removing tuples that cannot contribute to the join)
// and exact full-join-size computation |OUT⋈| = Σ_y Π_i deg_i(y).
//
// # Positions
//
// Algorithms address keys by position (Index.Pos, Index.Key, Index.List). An
// index whose keys span at most denseSpanFactor (4) slots per key keeps a
// direct position table and answers Pos in O(1); one with a wider span
// answers by binary search over its keys. The choice is made once, when the
// index is built, from the keys alone.
//
// # Building
//
// One builder core (build.go) stands behind every constructor and
// guarantees the same result for the same tuple set: sorted distinct keys,
// strictly ascending partner lists, no duplicate tuples, and the two indexes
// mirror each other.
//
//   - FromPairs accepts tuples in any order. Sorted input is indexed in
//     O(N); unsorted input is sorted as packed integers — two counting
//     passes when both columns span compact ranges, an O(N log N) integer
//     sort otherwise. The mirror index is a stable counting transposition of
//     the first (O(N + span)) when its key span is compact, a second integer
//     sort otherwise.
//   - ApplyDelta merges a small sorted delta into each index's existing run
//     in O(N + Δ log Δ), whatever the spans.
//   - FromGroups takes a result already grouped by key position — the form
//     the join kernels produce — and builds both indexes by two counting
//     transpositions in O(N + keys), comparing and searching nothing.
package relation

import (
	"fmt"
	"slices"
)

// Pair is a single tuple (X, Y) of a binary relation R(x,y).
type Pair struct {
	X, Y int32
}

// Index is a CSR-style index of a binary relation on one of its columns:
// sorted distinct keys, and for each key a sorted list of partner values.
type Index struct {
	keys []int32 // sorted distinct keys
	off  []int32 // len(keys)+1 offsets into vals
	vals []int32 // concatenated sorted partner lists

	// Direct position table, kept when the key span is compact (see
	// addressKeys): slot[key-base] is the key's position plus one, zero for a
	// value inside the span that is not a key. nil means Pos searches keys.
	base int32
	slot []int32
}

// NumKeys returns the number of distinct keys.
func (ix *Index) NumKeys() int { return len(ix.keys) }

// Key returns the i-th smallest key.
func (ix *Index) Key(i int) int32 { return ix.keys[i] }

// Keys returns the sorted distinct keys. Callers must not modify the slice.
func (ix *Index) Keys() []int32 { return ix.keys }

// List returns the sorted partner list of the i-th key (by position).
// Callers must not modify the returned slice.
func (ix *Index) List(i int) []int32 { return ix.vals[ix.off[i]:ix.off[i+1]] }

// Degree returns the length of the i-th key's partner list.
func (ix *Index) Degree(i int) int { return int(ix.off[i+1] - ix.off[i]) }

// Offset returns where the i-th key's partner list starts in the
// concatenation of all lists in key order, for 0 ≤ i ≤ NumKeys: tuple
// Offset(i)+j is (Key(i), List(i)[j]). Callers keep per-tuple side arrays
// addressed this way.
func (ix *Index) Offset(i int) int { return int(ix.off[i]) }

// Pos returns the position of key in the index, or -1 if absent.
func (ix *Index) Pos(key int32) int {
	// Unsigned 32-bit distance from the table's first key: exact for keys at
	// or above it, and at least the table's length for keys below it.
	if d := uint32(key) - uint32(ix.base); uint(d) < uint(len(ix.slot)) {
		return int(ix.slot[d]) - 1
	}
	return ix.searchPos(key)
}

// searchPos answers Pos for a key the position table does not cover: absent
// when there is a table, a binary search when there is none.
func (ix *Index) searchPos(key int32) int {
	if ix.slot == nil {
		if i, ok := slices.BinarySearch(ix.keys, key); ok {
			return i
		}
	}
	return -1
}

// addressKeys attaches the direct position table when the keys are compact.
func (ix *Index) addressKeys() {
	nk := len(ix.keys)
	if nk == 0 {
		return
	}
	span := int64(ix.keys[nk-1]) - int64(ix.keys[0]) + 1
	if !compact(span, nk) {
		return
	}
	ix.base = ix.keys[0]
	ix.slot = make([]int32, span)
	for i, k := range ix.keys {
		ix.slot[k-ix.base] = int32(i) + 1
	}
}

// Lookup returns the sorted partner list for key, or nil if key is absent.
func (ix *Index) Lookup(key int32) []int32 {
	if i := ix.Pos(key); i >= 0 {
		return ix.List(i)
	}
	return nil
}

// Relation is an immutable, fully indexed binary relation R(x,y).
type Relation struct {
	name string
	n    int
	byX  *Index
	byY  *Index
}

// FromPairs builds a relation from tuples in any order. Duplicate tuples are
// removed and both column indexes are built. The input slice is not
// retained. Input already sorted by (x, y) without duplicates — the
// invariant DecodePairs guarantees and Pairs() restores — is indexed as it
// stands and never sorted, so loading a snapshotted relation costs O(N) plus
// the mirror index.
func FromPairs(name string, ps []Pair) *Relation {
	p := packPairs(ps, false)
	sortPacked(p)
	byX := indexFromPacked(p)
	return &Relation{name: name, n: len(byX.vals), byX: byX, byY: byX.mirror()}
}

// FromGroups builds a relation from tuples grouped by x position: xKeys and
// yKeys are the ascending distinct candidate values of the two columns, and
// x value xKeys[i] pairs with the y values yKeys[p] for every position p in
// ypos[off[i]:off[i+1]] (len(off) = len(xKeys)+1). Positions within one
// group may come in any order but must not repeat; candidate values without a
// tuple are dropped. Both indexes are built by counting transpositions in
// O(len(ypos) + len(xKeys) + len(yKeys)). The inputs are not retained.
func FromGroups(name string, xKeys, yKeys, off, ypos []int32) *Relation {
	// Group by y position (x positions ascending within each), then back by
	// x position, which hands every x its y values in ascending order.
	offY, xByY := invert(off, ypos, 0, len(yKeys), nil)
	offX, yByX := invert(offY, xByY, 0, len(xKeys), yKeys)
	for i, xp := range xByY {
		xByY[i] = xKeys[xp]
	}
	return &Relation{
		name: name,
		n:    len(ypos),
		byX:  indexFromBuckets(offX, yByX, 0, xKeys),
		byY:  indexFromBuckets(offY, xByY, 0, yKeys),
	}
}

// ApplyDelta returns a new relation with added tuples inserted into and
// removed tuples deleted from r, rebuilding both column indexes by a linear
// merge of the existing sorted runs with the (small, sorted) delta — O(N +
// Δ log Δ) whatever the key spans. This is the catalog's mutation fast path:
// under small update batches the rebuild cost is dominated by the copy, not
// by sorting. Tuples in added that are already present and tuples in removed
// that are absent are ignored; a tuple in both is removed.
func ApplyDelta(r *Relation, name string, added, removed []Pair) *Relation {
	merge := func(ix *Index, swap bool) *Index {
		add, rem := packPairs(added, swap), packPairs(removed, swap)
		sortPacked(add)
		sortPacked(rem)
		return mergeDelta(ix, add, rem)
	}
	byX := merge(r.byX, false)
	return &Relation{name: name, n: len(byX.vals), byX: byX, byY: merge(r.byY, true)}
}

// Name returns the relation's name.
func (r *Relation) Name() string { return r.name }

// Swap returns the relation with its columns exchanged: Swap()(a, b) holds
// iff r(b, a). Both orientations share the same underlying indexes, so this
// is O(1).
func (r *Relation) Swap() *Relation {
	return &Relation{name: r.name + "_swap", n: r.n, byX: r.byY, byY: r.byX}
}

// Size returns the number of tuples N.
func (r *Relation) Size() int { return r.n }

// ByX returns the index keyed on the first column.
func (r *Relation) ByX() *Index { return r.byX }

// ByY returns the index keyed on the second (join) column.
func (r *Relation) ByY() *Index { return r.byY }

// NumX returns |dom(x)| restricted to values present in the relation.
func (r *Relation) NumX() int { return r.byX.NumKeys() }

// NumY returns the number of distinct join values present.
func (r *Relation) NumY() int { return r.byY.NumKeys() }

// Contains reports whether tuple (x, y) is in the relation.
func (r *Relation) Contains(x, y int32) bool {
	_, ok := slices.BinarySearch(r.byX.Lookup(x), y)
	return ok
}

// Pairs re-materializes the tuple list in (x, y) order.
func (r *Relation) Pairs() []Pair {
	out := make([]Pair, 0, r.n)
	for i := 0; i < r.byX.NumKeys(); i++ {
		x := r.byX.Key(i)
		for _, y := range r.byX.List(i) {
			out = append(out, Pair{x, y})
		}
	}
	return out
}

// FilterX returns a new relation keeping only tuples whose x value satisfies
// keep. Used by the BSI batching path to restrict R to the constants of a
// query batch (Section 3.3).
func (r *Relation) FilterX(keep func(x int32) bool) *Relation {
	var ps []Pair
	for i := 0; i < r.byX.NumKeys(); i++ {
		x := r.byX.Key(i)
		if !keep(x) {
			continue
		}
		for _, y := range r.byX.List(i) {
			ps = append(ps, Pair{x, y})
		}
	}
	return FromPairs(r.name+"_filtered", ps)
}

// RestrictXSet returns a new relation keeping only tuples whose x value is in
// xs. xs need not be sorted.
func (r *Relation) RestrictXSet(xs []int32) *Relation {
	set := make(map[int32]struct{}, len(xs))
	for _, x := range xs {
		set[x] = struct{}{}
	}
	return r.FilterX(func(x int32) bool {
		_, ok := set[x]
		return ok
	})
}

// Stats summarizes a relation the way Table 2 of the paper does, viewing the
// relation as a family of sets: each x value is a set containing its y
// partners.
type Stats struct {
	Tuples     int // |R|
	NumSets    int // number of distinct x values
	DomainSize int // number of distinct y values
	AvgSetSize float64
	MinSetSize int
	MaxSetSize int
}

// Stats computes Table-2 style statistics.
func (r *Relation) Stats() Stats {
	s := Stats{Tuples: r.n, NumSets: r.NumX(), DomainSize: r.NumY()}
	if r.NumX() == 0 {
		return s
	}
	s.MinSetSize = r.byX.Degree(0)
	for i := 0; i < r.byX.NumKeys(); i++ {
		d := r.byX.Degree(i)
		if d < s.MinSetSize {
			s.MinSetSize = d
		}
		if d > s.MaxSetSize {
			s.MaxSetSize = d
		}
	}
	s.AvgSetSize = float64(r.n) / float64(r.NumX())
	return s
}

// String renders the stats as a Table-2 row.
func (s Stats) String() string {
	return fmt.Sprintf("|R|=%d sets=%d |dom|=%d avg=%.1f min=%d max=%d",
		s.Tuples, s.NumSets, s.DomainSize, s.AvgSetSize, s.MinSetSize, s.MaxSetSize)
}

// CommonYs returns the sorted join values present in every given relation.
func CommonYs(rels ...*Relation) []int32 {
	if len(rels) == 0 {
		return nil
	}
	// Start from the relation with the fewest distinct y values.
	min := 0
	for i, r := range rels {
		if r.NumY() < rels[min].NumY() {
			min = i
		}
	}
	base := rels[min].byY.Keys()
	out := make([]int32, 0, len(base))
	for _, y := range base {
		ok := true
		for i, r := range rels {
			if i == min {
				continue
			}
			if r.byY.Pos(y) < 0 {
				ok = false
				break
			}
		}
		if ok {
			out = append(out, y)
		}
	}
	return out
}

// Reduce performs the linear-time preprocessing step the paper assumes:
// it removes every tuple whose join value does not appear in all relations,
// so no remaining tuple is dangling. It returns new reduced relations.
func Reduce(rels ...*Relation) []*Relation {
	ys := CommonYs(rels...)
	ySet := make(map[int32]struct{}, len(ys))
	for _, y := range ys {
		ySet[y] = struct{}{}
	}
	out := make([]*Relation, len(rels))
	for i, r := range rels {
		var ps []Pair
		for j := 0; j < r.byY.NumKeys(); j++ {
			y := r.byY.Key(j)
			if _, ok := ySet[y]; !ok {
				continue
			}
			for _, x := range r.byY.List(j) {
				ps = append(ps, Pair{x, y})
			}
		}
		out[i] = FromPairs(r.name, ps)
	}
	return out
}

// FullJoinSize returns |OUT⋈| = Σ_y Π_i deg_i(y), the size of the full star
// join before projection. Computable in one pass over the y indexes.
func FullJoinSize(rels ...*Relation) int64 {
	ys := CommonYs(rels...)
	var total int64
	for _, y := range ys {
		prod := int64(1)
		for _, r := range rels {
			prod *= int64(len(r.byY.Lookup(y)))
			if prod < 0 { // overflow guard; clamp
				return int64(1) << 62
			}
		}
		total += prod
		if total < 0 {
			return int64(1) << 62
		}
	}
	return total
}

// IntersectSorted intersects two ascending int32 slices, appending the
// result to dst and returning it. It switches between galloping and linear
// merge depending on the length ratio, mirroring the adaptive set
// intersections of WCOJ engines.
func IntersectSorted(dst, a, b []int32) []int32 {
	if len(a) > len(b) {
		a, b = b, a
	}
	if len(a) == 0 {
		return dst
	}
	if len(b) >= 16*len(a) {
		// Galloping: binary-search each element of the short list.
		for _, v := range a {
			i, ok := slices.BinarySearch(b, v)
			if ok {
				dst = append(dst, v)
			}
			b = b[i:]
			if len(b) == 0 {
				break
			}
		}
		return dst
	}
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			dst = append(dst, a[i])
			i++
			j++
		}
	}
	return dst
}

// IntersectCount returns |a ∩ b| for ascending slices without materializing.
func IntersectCount(a, b []int32) int {
	if len(a) > len(b) {
		a, b = b, a
	}
	if len(a) == 0 {
		return 0
	}
	cnt := 0
	if len(b) >= 16*len(a) {
		for _, v := range a {
			i, ok := slices.BinarySearch(b, v)
			if ok {
				cnt++
			}
			b = b[i:]
			if len(b) == 0 {
				break
			}
		}
		return cnt
	}
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			cnt++
			i++
			j++
		}
	}
	return cnt
}

// ContainsSorted reports whether every element of sub (ascending) appears in
// sup (ascending) — the verification primitive of set containment joins.
func ContainsSorted(sup, sub []int32) bool {
	if len(sub) > len(sup) {
		return false
	}
	i := 0
	for _, v := range sub {
		for i < len(sup) && sup[i] < v {
			i++
		}
		if i >= len(sup) || sup[i] != v {
			return false
		}
		i++
	}
	return true
}
