package relation

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"testing/quick"
)

func mustPairs(ps ...[2]int32) []Pair {
	out := make([]Pair, len(ps))
	for i, p := range ps {
		out[i] = Pair{p[0], p[1]}
	}
	return out
}

func TestFromPairsDedupAndIndexes(t *testing.T) {
	r := FromPairs("R", mustPairs([2]int32{1, 2}, [2]int32{1, 2}, [2]int32{1, 3}, [2]int32{2, 2}))
	if r.Size() != 3 {
		t.Fatalf("Size = %d, want 3 (duplicate removed)", r.Size())
	}
	if got := r.ByX().Lookup(1); len(got) != 2 || got[0] != 2 || got[1] != 3 {
		t.Fatalf("ByX.Lookup(1) = %v, want [2 3]", got)
	}
	if got := r.ByY().Lookup(2); len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Fatalf("ByY.Lookup(2) = %v, want [1 2]", got)
	}
	if r.ByX().Lookup(99) != nil {
		t.Fatal("Lookup of absent key should be nil")
	}
}

func TestEmptyRelation(t *testing.T) {
	r := FromPairs("E", nil)
	if r.Size() != 0 || r.NumX() != 0 || r.NumY() != 0 {
		t.Fatal("empty relation not empty")
	}
	st := r.Stats()
	if st.Tuples != 0 || st.MaxSetSize != 0 {
		t.Fatalf("stats of empty: %+v", st)
	}
	if FullJoinSize(r, r) != 0 {
		t.Fatal("FullJoinSize of empty should be 0")
	}
}

func TestContains(t *testing.T) {
	r := FromPairs("R", mustPairs([2]int32{5, 7}, [2]int32{5, 9}, [2]int32{6, 7}))
	if !r.Contains(5, 7) || !r.Contains(6, 7) || !r.Contains(5, 9) {
		t.Fatal("Contains missed present tuple")
	}
	if r.Contains(5, 8) || r.Contains(7, 7) {
		t.Fatal("Contains reported absent tuple")
	}
}

func TestPairsRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	var ps []Pair
	for i := 0; i < 500; i++ {
		ps = append(ps, Pair{int32(rng.Intn(50)), int32(rng.Intn(50))})
	}
	r := FromPairs("R", ps)
	back := r.Pairs()
	if len(back) != r.Size() {
		t.Fatalf("Pairs len = %d, want %d", len(back), r.Size())
	}
	r2 := FromPairs("R2", back)
	if r2.Size() != r.Size() {
		t.Fatal("round trip changed size")
	}
	for _, p := range back {
		if !r2.Contains(p.X, p.Y) {
			t.Fatalf("round trip lost %v", p)
		}
	}
}

func TestStats(t *testing.T) {
	r := FromPairs("R", mustPairs(
		[2]int32{1, 10}, [2]int32{1, 11}, [2]int32{1, 12},
		[2]int32{2, 10},
	))
	s := r.Stats()
	if s.Tuples != 4 || s.NumSets != 2 || s.DomainSize != 3 {
		t.Fatalf("stats = %+v", s)
	}
	if s.MinSetSize != 1 || s.MaxSetSize != 3 || s.AvgSetSize != 2.0 {
		t.Fatalf("set sizes = %+v", s)
	}
	if s.String() == "" {
		t.Fatal("empty String()")
	}
}

func TestCommonYsAndReduce(t *testing.T) {
	r := FromPairs("R", mustPairs([2]int32{1, 1}, [2]int32{2, 2}, [2]int32{3, 3}))
	s := FromPairs("S", mustPairs([2]int32{9, 2}, [2]int32{9, 3}, [2]int32{9, 4}))
	ys := CommonYs(r, s)
	if len(ys) != 2 || ys[0] != 2 || ys[1] != 3 {
		t.Fatalf("CommonYs = %v, want [2 3]", ys)
	}
	red := Reduce(r, s)
	if red[0].Size() != 2 {
		t.Fatalf("reduced R size = %d, want 2", red[0].Size())
	}
	if red[1].Size() != 2 {
		t.Fatalf("reduced S size = %d, want 2", red[1].Size())
	}
	if red[0].Contains(1, 1) {
		t.Fatal("dangling tuple (1,1) survived reduction")
	}
}

func TestReduceThreeWay(t *testing.T) {
	r1 := FromPairs("R1", mustPairs([2]int32{1, 5}, [2]int32{2, 6}))
	r2 := FromPairs("R2", mustPairs([2]int32{3, 5}, [2]int32{4, 7}))
	r3 := FromPairs("R3", mustPairs([2]int32{8, 5}, [2]int32{9, 6}))
	red := Reduce(r1, r2, r3)
	for i, want := range []int{1, 1, 1} {
		if red[i].Size() != want {
			t.Fatalf("red[%d].Size = %d, want %d", i, red[i].Size(), want)
		}
	}
	if !red[0].Contains(1, 5) || !red[1].Contains(3, 5) || !red[2].Contains(8, 5) {
		t.Fatal("wrong tuples survived 3-way reduction")
	}
}

func TestFullJoinSize(t *testing.T) {
	// y=1: degR=2, degS=3 → 6; y=2: 1*1 → 1. Total 7.
	r := FromPairs("R", mustPairs([2]int32{1, 1}, [2]int32{2, 1}, [2]int32{3, 2}))
	s := FromPairs("S", mustPairs([2]int32{7, 1}, [2]int32{8, 1}, [2]int32{9, 1}, [2]int32{7, 2}))
	if got := FullJoinSize(r, s); got != 7 {
		t.Fatalf("FullJoinSize = %d, want 7", got)
	}
	// Star with three relations: y=1 only, 2*3*1.
	u := FromPairs("U", mustPairs([2]int32{4, 1}))
	if got := FullJoinSize(r, s, u); got != 6 {
		t.Fatalf("3-way FullJoinSize = %d, want 6", got)
	}
}

func TestFilterXAndRestrict(t *testing.T) {
	r := FromPairs("R", mustPairs([2]int32{1, 1}, [2]int32{2, 1}, [2]int32{3, 2}))
	f := r.FilterX(func(x int32) bool { return x != 2 })
	if f.Size() != 2 || f.Contains(2, 1) {
		t.Fatalf("FilterX wrong: size=%d", f.Size())
	}
	g := r.RestrictXSet([]int32{3, 99})
	if g.Size() != 1 || !g.Contains(3, 2) {
		t.Fatalf("RestrictXSet wrong: size=%d", g.Size())
	}
}

func TestDegrees(t *testing.T) {
	r := FromPairs("R", mustPairs([2]int32{1, 1}, [2]int32{1, 2}, [2]int32{2, 2}))
	for _, c := range []struct {
		ix   *Index
		want []int
	}{{r.ByX(), []int{2, 1}}, {r.ByY(), []int{1, 2}}} {
		if c.ix.NumKeys() != len(c.want) {
			t.Fatalf("%d keys, want %d", c.ix.NumKeys(), len(c.want))
		}
		for i, d := range c.want {
			if got := c.ix.Degree(i); got != d {
				t.Fatalf("Degree(%d) of key %d = %d, want %d", i, c.ix.Key(i), got, d)
			}
		}
	}
}

func naiveIntersect(a, b []int32) []int32 {
	set := map[int32]bool{}
	for _, v := range a {
		set[v] = true
	}
	var out []int32
	for _, v := range b {
		if set[v] {
			out = append(out, v)
		}
	}
	slices.Sort(out)
	return out
}

func sortedRandomSlice(rng *rand.Rand, n, dom int) []int32 {
	set := map[int32]bool{}
	for i := 0; i < n; i++ {
		set[int32(rng.Intn(dom))] = true
	}
	out := make([]int32, 0, len(set))
	for v := range set {
		out = append(out, v)
	}
	slices.Sort(out)
	return out
}

func TestIntersectSortedRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 100; trial++ {
		// Mix of balanced and very skewed lengths to hit both the merge and
		// galloping paths.
		na, nb := 1+rng.Intn(50), 1+rng.Intn(2000)
		a := sortedRandomSlice(rng, na, 300)
		b := sortedRandomSlice(rng, nb, 3000)
		want := naiveIntersect(a, b)
		got := IntersectSorted(nil, a, b)
		if len(got) != len(want) {
			t.Fatalf("trial %d: len = %d, want %d", trial, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("trial %d: [%d] = %d, want %d", trial, i, got[i], want[i])
			}
		}
		if cnt := IntersectCount(a, b); cnt != len(want) {
			t.Fatalf("trial %d: IntersectCount = %d, want %d", trial, cnt, len(want))
		}
		if cnt := IntersectCount(b, a); cnt != len(want) {
			t.Fatalf("trial %d: IntersectCount sym = %d, want %d", trial, cnt, len(want))
		}
	}
}

func TestIntersectEmpty(t *testing.T) {
	if got := IntersectSorted(nil, nil, []int32{1, 2}); got != nil {
		t.Fatalf("intersect with empty = %v", got)
	}
	if IntersectCount(nil, nil) != 0 {
		t.Fatal("IntersectCount empty != 0")
	}
}

func TestContainsSorted(t *testing.T) {
	sup := []int32{1, 3, 5, 7, 9}
	cases := []struct {
		sub  []int32
		want bool
	}{
		{[]int32{}, true},
		{[]int32{1}, true},
		{[]int32{9}, true},
		{[]int32{3, 7}, true},
		{[]int32{1, 3, 5, 7, 9}, true},
		{[]int32{2}, false},
		{[]int32{1, 2}, false},
		{[]int32{9, 10}, false},
		{[]int32{1, 3, 5, 7, 9, 11}, false},
	}
	for _, c := range cases {
		if got := ContainsSorted(sup, c.sub); got != c.want {
			t.Errorf("ContainsSorted(%v) = %v, want %v", c.sub, got, c.want)
		}
	}
}

// Property: FromPairs is idempotent under Pairs() and preserves membership.
func TestQuickFromPairsMembership(t *testing.T) {
	f := func(raw []uint16) bool {
		ps := make([]Pair, 0, len(raw)/2)
		for i := 0; i+1 < len(raw); i += 2 {
			ps = append(ps, Pair{int32(raw[i] % 64), int32(raw[i+1] % 64)})
		}
		r := FromPairs("q", ps)
		for _, p := range ps {
			if !r.Contains(p.X, p.Y) {
				return false
			}
		}
		// Size equals number of distinct pairs.
		set := map[Pair]bool{}
		for _, p := range ps {
			set[p] = true
		}
		return r.Size() == len(set)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: FullJoinSize(R,S) equals brute-force pair counting.
func TestQuickFullJoinSize(t *testing.T) {
	f := func(ra, sa []uint16) bool {
		rp := make([]Pair, 0, len(ra)/2)
		for i := 0; i+1 < len(ra); i += 2 {
			rp = append(rp, Pair{int32(ra[i] % 16), int32(ra[i+1] % 16)})
		}
		sp := make([]Pair, 0, len(sa)/2)
		for i := 0; i+1 < len(sa); i += 2 {
			sp = append(sp, Pair{int32(sa[i] % 16), int32(sa[i+1] % 16)})
		}
		r, s := FromPairs("r", rp), FromPairs("s", sp)
		var want int64
		for _, p := range r.Pairs() {
			for _, q := range s.Pairs() {
				if p.Y == q.Y {
					want++
				}
			}
		}
		return FullJoinSize(r, s) == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestApplyDeltaDifferential cross-checks the linear-merge delta rebuild
// against FromPairs over many random mutations.
func TestApplyDeltaDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	randPairs := func(n, dom int) []Pair {
		out := make([]Pair, n)
		for i := range out {
			out[i] = Pair{X: int32(rng.Intn(dom)), Y: int32(rng.Intn(dom))}
		}
		return out
	}
	for round := 0; round < 200; round++ {
		dom := 2 + rng.Intn(20)
		base := randPairs(rng.Intn(60), dom)
		old := FromPairs("R", base)
		added := randPairs(rng.Intn(10), dom)
		var removed []Pair
		ps := old.Pairs()
		for i := 0; i < rng.Intn(8) && len(ps) > 0; i++ {
			removed = append(removed, ps[rng.Intn(len(ps))])
		}
		removed = append(removed, randPairs(rng.Intn(3), dom)...) // some misses
		// Tuples both added and removed are removed (delete wins).
		got := ApplyDelta(old, "R", added, removed)

		rmSet := map[Pair]bool{}
		for _, p := range removed {
			rmSet[p] = true
		}
		var want []Pair
		for _, p := range old.Pairs() {
			if !rmSet[p] {
				want = append(want, p)
			}
		}
		for _, p := range added {
			if !rmSet[p] {
				want = append(want, p)
			}
		}
		ref := FromPairs("R", want)
		if got.Size() != ref.Size() {
			t.Fatalf("round %d: size %d, want %d", round, got.Size(), ref.Size())
		}
		if !reflect.DeepEqual(got.Pairs(), ref.Pairs()) {
			t.Fatalf("round %d: pairs diverged\n got %v\nwant %v", round, got.Pairs(), ref.Pairs())
		}
		// Mirror index agrees too.
		for i := 0; i < ref.ByY().NumKeys(); i++ {
			y := ref.ByY().Key(i)
			if !reflect.DeepEqual(got.ByY().Lookup(y), ref.ByY().Lookup(y)) {
				t.Fatalf("round %d: ByY(%d) diverged", round, y)
			}
		}
		if got.ByY().NumKeys() != ref.ByY().NumKeys() {
			t.Fatalf("round %d: ByY key counts diverged", round)
		}
	}
}
