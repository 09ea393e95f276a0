package wcoj

import (
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/relation"
)

func rel(name string, ps ...[2]int32) *relation.Relation {
	pairs := make([]relation.Pair, len(ps))
	for i, p := range ps {
		pairs[i] = relation.Pair{X: p[0], Y: p[1]}
	}
	return relation.FromPairs(name, pairs)
}

func randomRel(rng *rand.Rand, name string, n, xdom, ydom int) *relation.Relation {
	ps := make([]relation.Pair, n)
	for i := range ps {
		ps[i] = relation.Pair{X: int32(rng.Intn(xdom)), Y: int32(rng.Intn(ydom))}
	}
	return relation.FromPairs(name, ps)
}

// cloneLists deep-copies lists, so a test can tell whether a callee changed
// either the values or the slice headers it was handed.
func cloneLists(lists [][]int32) [][]int32 {
	if lists == nil {
		return nil
	}
	out := make([][]int32, len(lists))
	for i, l := range lists {
		out[i] = slices.Clone(l)
	}
	return out
}

func TestIntersectK(t *testing.T) {
	cases := []struct {
		lists [][]int32
		want  []int32
	}{
		{nil, nil},
		{[][]int32{{1, 2, 3}}, []int32{1, 2, 3}},
		{[][]int32{{1, 2, 3}, {2, 3, 4}}, []int32{2, 3}},
		{[][]int32{{1, 5, 9}, {2, 6, 10}}, nil},
		{[][]int32{{1, 2, 3, 4, 5}, {2, 4, 6}, {4, 5, 6}}, []int32{4}},
		{[][]int32{{}, {1}}, nil},
		{[][]int32{{7}, {7}, {7}, {7}}, []int32{7}},
	}
	for i, c := range cases {
		before := cloneLists(c.lists)
		got := IntersectK(c.lists)
		if !reflect.DeepEqual(c.lists, before) {
			t.Fatalf("case %d: input changed to %v, was %v", i, c.lists, before)
		}
		if len(got) != len(c.want) {
			t.Fatalf("case %d: got %v, want %v", i, got, c.want)
		}
		for j := range c.want {
			if got[j] != c.want[j] {
				t.Fatalf("case %d: got %v, want %v", i, got, c.want)
			}
		}
	}
}

func TestIntersectKRandomAgainstNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 100; trial++ {
		k := 2 + rng.Intn(4)
		lists := make([][]int32, k)
		counts := map[int32]int{}
		for i := range lists {
			seen := map[int32]bool{}
			n := rng.Intn(60)
			for j := 0; j < n; j++ {
				v := int32(rng.Intn(40))
				if !seen[v] {
					seen[v] = true
					lists[i] = append(lists[i], v)
				}
			}
			sort.Slice(lists[i], func(a, b int) bool { return lists[i][a] < lists[i][b] })
			for v := range seen {
				counts[v]++
			}
		}
		var want []int32
		for v, c := range counts {
			if c == k {
				want = append(want, v)
			}
		}
		sort.Slice(want, func(a, b int) bool { return want[a] < want[b] })
		before := cloneLists(lists)
		got := IntersectK(lists)
		if !reflect.DeepEqual(lists, before) {
			t.Fatalf("trial %d: input changed to %v, was %v", trial, lists, before)
		}
		if len(got) != len(want) {
			t.Fatalf("trial %d: got %v, want %v", trial, got, want)
		}
		for j := range want {
			if got[j] != want[j] {
				t.Fatalf("trial %d: got %v, want %v", trial, got, want)
			}
		}
	}
}

func TestGallop(t *testing.T) {
	l := []int32{2, 4, 6, 8, 10, 12, 14}
	for v := int32(0); v <= 16; v++ {
		want := sort.Search(len(l), func(i int) bool { return l[i] >= v })
		if got := gallop(l, v); got != want {
			t.Fatalf("gallop(%d) = %d, want %d", v, got, want)
		}
	}
	if gallop(nil, 5) != 0 {
		t.Fatal("gallop on empty list should be 0")
	}
}

func TestProject2PathSmall(t *testing.T) {
	r := rel("R", [2]int32{1, 10}, [2]int32{2, 10}, [2]int32{3, 11})
	s := rel("S", [2]int32{5, 10}, [2]int32{6, 11}, [2]int32{6, 12})
	got := Project2Path(r, s)
	want := map[[2]int32]bool{{1, 5}: true, {2, 5}: true, {3, 6}: true}
	if len(got) != len(want) {
		t.Fatalf("got %v, want 3 pairs", got)
	}
	for _, p := range got {
		if !want[p] {
			t.Fatalf("unexpected pair %v", p)
		}
	}
}

func TestProject2PathCounts(t *testing.T) {
	// x=1 connects to z=5 through y=10 and y=11 → count 2.
	r := rel("R", [2]int32{1, 10}, [2]int32{1, 11})
	s := rel("S", [2]int32{5, 10}, [2]int32{5, 11}, [2]int32{5, 12})
	counts := Project2PathCounts(r, s)
	if len(counts) != 1 || counts[[2]int32{1, 5}] != 2 {
		t.Fatalf("counts = %v, want {(1,5):2}", counts)
	}
}

func TestCountFullJoinMatchesFullJoinSize(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for trial := 0; trial < 20; trial++ {
		r := randomRel(rng, "R", 100, 20, 15)
		s := randomRel(rng, "S", 120, 25, 15)
		u := randomRel(rng, "U", 80, 18, 15)
		rels := []*relation.Relation{r, s, u}
		if got, want := CountFullJoin(rels), relation.FullJoinSize(r, s, u); got != want {
			t.Fatalf("trial %d: CountFullJoin = %d, FullJoinSize = %d", trial, got, want)
		}
	}
}

func TestForEachFullTupleEnumeratesJoin(t *testing.T) {
	r := rel("R", [2]int32{1, 10}, [2]int32{2, 10})
	s := rel("S", [2]int32{5, 10})
	u := rel("U", [2]int32{7, 10}, [2]int32{8, 10})
	var tuples [][4]int32
	ForEachFullTuple([]*relation.Relation{r, s, u}, func(y int32, xs []int32) {
		tuples = append(tuples, [4]int32{y, xs[0], xs[1], xs[2]})
	})
	if len(tuples) != 4 {
		t.Fatalf("enumerated %d tuples, want 4", len(tuples))
	}
	seen := map[[4]int32]bool{}
	for _, tp := range tuples {
		seen[tp] = true
	}
	for _, want := range [][4]int32{{10, 1, 5, 7}, {10, 1, 5, 8}, {10, 2, 5, 7}, {10, 2, 5, 8}} {
		if !seen[want] {
			t.Fatalf("missing tuple %v", want)
		}
	}
}

func TestProjectStarDedups(t *testing.T) {
	// Both y=10 and y=11 connect (1,5): the projection must contain it once.
	r := rel("R", [2]int32{1, 10}, [2]int32{1, 11})
	s := rel("S", [2]int32{5, 10}, [2]int32{5, 11})
	got := ProjectStar([]*relation.Relation{r, s})
	if len(got) != 1 || got[0][0] != 1 || got[0][1] != 5 {
		t.Fatalf("ProjectStar = %v, want [[1 5]]", got)
	}
}

func TestEmptyInputs(t *testing.T) {
	empty := rel("E")
	r := rel("R", [2]int32{1, 1})
	if got := Project2Path(empty, r); len(got) != 0 {
		t.Fatalf("join with empty = %v", got)
	}
	if got := ProjectStar(nil); len(got) != 0 {
		t.Fatalf("star of no relations = %v", got)
	}
	if CountFullJoin([]*relation.Relation{empty, r}) != 0 {
		t.Fatal("count with empty relation != 0")
	}
}

// Brute-force oracle for the 2-path projection.
func bruteProject2Path(r, s *relation.Relation) map[[2]int32]int32 {
	out := map[[2]int32]int32{}
	for _, rp := range r.Pairs() {
		for _, sp := range s.Pairs() {
			if rp.Y == sp.Y {
				out[[2]int32{rp.X, sp.X}]++
			}
		}
	}
	return out
}

// Property: Project2PathCounts equals brute force on random instances.
func TestQuickProject2PathCounts(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		r := randomRel(rng, "R", 1+rng.Intn(150), 1+rng.Intn(25), 1+rng.Intn(20))
		s := randomRel(rng, "S", 1+rng.Intn(150), 1+rng.Intn(25), 1+rng.Intn(20))
		want := bruteProject2Path(r, s)
		got := Project2PathCounts(r, s)
		if len(got) != len(want) {
			return false
		}
		for k, v := range want {
			if got[k] != v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: |ProjectStar| ≤ CountFullJoin, and every projected tuple has a
// witness in the full join.
func TestQuickProjectStarSound(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		rels := []*relation.Relation{
			randomRel(rng, "R1", 1+rng.Intn(60), 1+rng.Intn(10), 1+rng.Intn(8)),
			randomRel(rng, "R2", 1+rng.Intn(60), 1+rng.Intn(10), 1+rng.Intn(8)),
			randomRel(rng, "R3", 1+rng.Intn(60), 1+rng.Intn(10), 1+rng.Intn(8)),
		}
		proj := ProjectStar(rels)
		full := CountFullJoin(rels)
		if int64(len(proj)) > full {
			return false
		}
		// Witness check: each projected tuple must have a common y.
		for _, xs := range proj {
			lists := make([][]int32, len(rels))
			for i, r := range rels {
				lists[i] = append([]int32(nil), r.ByX().Lookup(xs[i])...)
			}
			if len(IntersectK(lists)) == 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// CountFullJoin returns the full join size by summing degree products,
// matching relation.FullJoinSize but via the enumeration skeleton: the
// oracle the tests cross-check the two with.
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
