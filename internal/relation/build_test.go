package relation

import (
	"encoding/binary"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// naiveIndex is the reference the builder is checked against: the distinct
// tuples sorted by a comparison sort, grouped by scanning.
type naiveIndex struct {
	keys  []int32
	lists [][]int32
}

func naiveIndexes(ps []Pair) (byX, byY naiveIndex) {
	build := func(ps []Pair) naiveIndex {
		ps = slices.Clone(ps)
		slices.SortFunc(ps, func(a, b Pair) int {
			if a.X != b.X {
				if a.X < b.X {
					return -1
				}
				return 1
			}
			if a.Y != b.Y {
				if a.Y < b.Y {
					return -1
				}
				return 1
			}
			return 0
		})
		ps = slices.Compact(ps)
		var n naiveIndex
		for i, p := range ps {
			if i == 0 || p.X != ps[i-1].X {
				n.keys = append(n.keys, p.X)
				n.lists = append(n.lists, nil)
			}
			n.lists[len(n.lists)-1] = append(n.lists[len(n.lists)-1], p.Y)
		}
		return n
	}
	swapped := make([]Pair, len(ps))
	for i, p := range ps {
		swapped[i] = Pair{X: p.Y, Y: p.X}
	}
	return build(ps), build(swapped)
}

// probes returns keys worth asking an index about: every key, its
// neighbours, the extremes of int32 and just outside the key range.
func probes(keys []int32) []int32 {
	out := []int32{math.MinInt32, math.MinInt32 + 1, -1, 0, 1, math.MaxInt32 - 1, math.MaxInt32}
	for _, k := range keys {
		out = append(out, k)
		if k > math.MinInt32 {
			out = append(out, k-1)
		}
		if k < math.MaxInt32 {
			out = append(out, k+1)
		}
	}
	return out
}

// checkIndex asserts that ix equals the reference in every accessor, that
// its position table is present exactly when the key span is compact, and
// that positions and lookups are the same with the table, without it, and
// (where the span is small enough to build one) with a table forced on.
func checkIndex(t *testing.T, label string, ix *Index, want naiveIndex) {
	t.Helper()
	if ix.NumKeys() != len(want.keys) {
		t.Fatalf("%s: %d keys, want %d", label, ix.NumKeys(), len(want.keys))
	}
	if !slices.Equal(ix.Keys(), want.keys) {
		t.Fatalf("%s: keys %v, want %v", label, ix.Keys(), want.keys)
	}
	off := 0
	for i, k := range want.keys {
		if ix.Key(i) != k || ix.Offset(i) != off || ix.Degree(i) != len(want.lists[i]) || !slices.Equal(ix.List(i), want.lists[i]) {
			t.Fatalf("%s: key %d at %d: key %d offset %d list %v, want offset %d list %v",
				label, k, i, ix.Key(i), ix.Offset(i), ix.List(i), off, want.lists[i])
		}
		off += len(want.lists[i])
	}
	if ix.Offset(len(want.keys)) != off {
		t.Fatalf("%s: end offset %d, want %d", label, ix.Offset(len(want.keys)), off)
	}

	span := int64(0)
	if n := len(want.keys); n > 0 {
		span = int64(want.keys[n-1]) - int64(want.keys[0]) + 1
	}
	if dense := len(want.keys) > 0 && span <= denseSpanFactor*int64(len(want.keys)); (ix.slot != nil) != dense {
		t.Fatalf("%s: position table present = %v for %d keys over span %d", label, ix.slot != nil, len(want.keys), span)
	}
	forms := map[string]*Index{"as built": ix}
	searched := *ix
	searched.base, searched.slot = 0, nil
	forms["searched"] = &searched
	if span > 0 && span <= 1<<16 {
		tabled := *ix
		tabled.base, tabled.slot = want.keys[0], make([]int32, span)
		for i, k := range want.keys {
			tabled.slot[k-tabled.base] = int32(i) + 1
		}
		forms["tabled"] = &tabled
	}
	for _, key := range probes(want.keys) {
		wantPos, found := slices.BinarySearch(want.keys, key)
		if !found {
			wantPos = -1
		}
		for name, form := range forms {
			if got := form.Pos(key); got != wantPos {
				t.Fatalf("%s (%s): Pos(%d) = %d, want %d", label, name, key, got, wantPos)
			}
			list := form.Lookup(key)
			if found && !slices.Equal(list, want.lists[wantPos]) || !found && list != nil {
				t.Fatalf("%s (%s): Lookup(%d) = %v", label, name, key, list)
			}
		}
	}
}

func checkRelation(t *testing.T, label string, r *Relation, ps []Pair) {
	t.Helper()
	wantX, wantY := naiveIndexes(ps)
	checkIndex(t, label+" byX", r.ByX(), wantX)
	checkIndex(t, label+" byY", r.ByY(), wantY)
	n := 0
	for _, l := range wantX.lists {
		n += len(l)
	}
	if r.Size() != n {
		t.Fatalf("%s: Size %d, want %d", label, r.Size(), n)
	}
}

// spread returns n keys 0..n-2 plus one last key that makes the span exactly
// the given width.
func spread(n int, span int32) []int32 {
	keys := make([]int32, n)
	for i := range keys {
		keys[i] = int32(i)
	}
	keys[n-1] = span - 1
	return keys
}

func builderCases() map[string][]Pair {
	const lo, hi = math.MinInt32, math.MaxInt32
	cases := map[string][]Pair{
		"empty":         nil,
		"single":        {{7, -3}},
		"all duplicate": {{4, 4}, {4, 4}, {4, 4}, {4, 4}},
		"negative":      {{-5, -1}, {-5, -9}, {-2, -9}, {-7, 3}, {-2, -9}},
		"extremes":      {{lo, hi}, {hi, lo}, {lo, lo}, {hi, hi}, {0, 0}, {lo, 0}, {0, hi}},
		"min only":      {{lo, lo}, {lo, lo + 1}, {lo + 1, lo}},
		"max only":      {{hi, hi}, {hi - 1, hi}, {hi, hi - 1}},
	}
	rng := rand.New(rand.NewSource(11))
	random := func(n int, x, y func() int32) []Pair {
		ps := make([]Pair, n)
		for i := range ps {
			ps[i] = Pair{X: x(), Y: y()}
		}
		return ps
	}
	small := func() int32 { return rng.Int31n(40) - 10 }
	wide := func() int32 { return int32(rng.Uint32()) }
	cases["compact x compact y"] = random(600, small, small)
	cases["compact x sparse y"] = random(600, small, wide)
	cases["sparse x compact y"] = random(600, wide, small)
	cases["sparse x sparse y"] = random(600, wide, wide)
	cases["sorted compact"] = FromPairs("", cases["compact x compact y"]).Pairs()
	cases["sorted sparse"] = FromPairs("", cases["sparse x sparse y"]).Pairs()

	// The span threshold, on either column: n keys spread over exactly
	// denseSpanFactor·n slots keep a position table, one slot more and they
	// do not.
	for _, d := range []int32{-1, 0, 1} {
		keys := spread(9, denseSpanFactor*9+d)
		var onX, onY []Pair
		for i, k := range keys {
			onX = append(onX, Pair{X: k, Y: int32(i % 3)})
			onY = append(onY, Pair{X: int32(i % 3), Y: k})
		}
		name := map[int32]string{-1: "below", 0: "at", 1: "above"}[d]
		cases["x span "+name+" threshold"] = onX
		cases["y span "+name+" threshold"] = onY
	}
	return cases
}

// TestBuilderMatchesNaive checks FromPairs against the reference on the
// seeded table, in the given order, shuffled and sorted.
func TestBuilderMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for name, ps := range builderCases() {
		checkRelation(t, name, FromPairs(name, ps), ps)
		shuffled := slices.Clone(ps)
		rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
		checkRelation(t, name+" shuffled", FromPairs(name, shuffled), ps)
		sorted := FromPairs(name, ps).Pairs()
		checkRelation(t, name+" sorted", FromPairs(name, sorted), ps)
	}
}

// TestPositionTableThreshold pins the dense/sparse rule itself.
func TestPositionTableThreshold(t *testing.T) {
	for _, tc := range []struct {
		span  int32
		dense bool
	}{{denseSpanFactor*9 - 1, true}, {denseSpanFactor * 9, true}, {denseSpanFactor*9 + 1, false}} {
		var ps []Pair
		for _, k := range spread(9, tc.span) {
			ps = append(ps, Pair{X: k, Y: 0})
		}
		if ix := FromPairs("", ps).ByX(); (ix.slot != nil) != tc.dense {
			t.Fatalf("9 keys over span %d: position table = %v, want %v", tc.span, ix.slot != nil, tc.dense)
		}
	}
}

// TestApplyDeltaMatchesFromPairs edits every table relation with deltas
// drawn from every other table entry and requires the result to equal
// FromPairs of the edited set.
func TestApplyDeltaMatchesFromPairs(t *testing.T) {
	cases := builderCases()
	for name, base := range cases {
		r := FromPairs(name, base)
		for dname, delta := range cases {
			added, removed := delta[:len(delta)/2], delta[len(delta)/2:]
			// Also remove some present tuples and re-add some present ones.
			if len(base) > 0 {
				removed = append(slices.Clone(removed), base[0], base[len(base)/2])
				added = append(slices.Clone(added), base[len(base)-1])
			}
			set := map[Pair]bool{}
			for _, p := range base {
				set[p] = true
			}
			for _, p := range added {
				set[p] = true
			}
			for _, p := range removed {
				delete(set, p)
			}
			var want []Pair
			for p := range set {
				want = append(want, p)
			}
			checkRelation(t, name+" Δ "+dname, ApplyDelta(r, name, added, removed), want)
		}
	}
}

// TestFromGroupsMatchesFromPairs feeds FromGroups randomly grouped
// positions (groups in any internal order, some keys without tuples) and
// compares with FromPairs of the same tuples.
func TestFromGroupsMatchesFromPairs(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	keySets := [][]int32{
		{},
		{5},
		{-4, -3, -2, 0, 1, 2, 3},
		{math.MinInt32, -1000000, -3, 0, 17, 90000, math.MaxInt32},
	}
	for _, xKeys := range keySets {
		for _, yKeys := range keySets {
			for _, density := range []float64{0, 0.3, 1} {
				off := []int32{0}
				var ypos []int32
				var ps []Pair
				for _, x := range xKeys {
					for _, p := range rng.Perm(len(yKeys)) {
						if rng.Float64() < density {
							ypos = append(ypos, int32(p))
							ps = append(ps, Pair{X: x, Y: yKeys[p]})
						}
					}
					off = append(off, int32(len(ypos)))
				}
				checkRelation(t, "groups", FromGroups("g", xKeys, yKeys, off, ypos), ps)
			}
		}
	}
}

// fuzzPairs decodes fuzz input into tuples: the first byte picks how the
// following 2-byte fields spread over int32 — packed tight, strided sparse,
// pinned to the extremes, or mixed per column.
func fuzzPairs(data []byte) []Pair {
	if len(data) == 0 {
		return nil
	}
	mode := data[0]
	widen := func(v uint16, how byte) int32 {
		switch how % 4 {
		case 0:
			return int32(v%64) - 32
		case 1:
			return int32(uint32(v) * 65537)
		case 2:
			return math.MinInt32 + int32(v%8)
		default:
			return math.MaxInt32 - int32(v%8)
		}
	}
	var ps []Pair
	for b := data[1:]; len(b) >= 4; b = b[4:] {
		ps = append(ps, Pair{
			X: widen(binary.LittleEndian.Uint16(b), mode),
			Y: widen(binary.LittleEndian.Uint16(b[2:]), mode>>2),
		})
	}
	return ps
}

// FuzzFromPairs checks the builder against the naive reference on arbitrary
// tuple lists, and ApplyDelta of one half onto the other against FromPairs
// of the edited set.
func FuzzFromPairs(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 1, 0, 2, 0, 1, 0, 2, 0, 9, 0, 3, 0})
	f.Add([]byte{1, 1, 0, 2, 0, 3, 0, 4, 0, 0xff, 0xff, 0, 0})
	f.Add([]byte{6, 1, 0, 2, 0, 7, 0, 7, 0, 1, 0, 2, 0})
	f.Add([]byte{11, 5, 0, 5, 0, 4, 0, 6, 0})
	f.Add([]byte{4, 200, 1, 3, 0, 100, 0, 2, 0, 50, 2, 1, 0, 0, 0, 9, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		ps := fuzzPairs(data)
		r := FromPairs("f", ps)
		checkRelation(t, "fuzz", r, ps)

		base, delta := ps[:len(ps)/2], ps[len(ps)/2:]
		added, removed := delta[:len(delta)/2], delta[len(delta)/2:]
		set := map[Pair]bool{}
		for _, p := range base {
			set[p] = true
		}
		for _, p := range added {
			set[p] = true
		}
		for _, p := range removed {
			delete(set, p)
		}
		var want []Pair
		for p := range set {
			want = append(want, p)
		}
		checkRelation(t, "fuzz delta", ApplyDelta(FromPairs("b", base), "b", added, removed), want)
	})
}
