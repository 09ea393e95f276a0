package baseline

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/relation"
	"repro/internal/wcoj"
)

func randomRel(rng *rand.Rand, name string, n, xdom, ydom int) *relation.Relation {
	ps := make([]relation.Pair, n)
	for i := range ps {
		ps[i] = relation.Pair{X: int32(rng.Intn(xdom)), Y: int32(rng.Intn(ydom))}
	}
	return relation.FromPairs(name, ps)
}

func brute(r, s *relation.Relation) map[[2]int32]bool {
	out := map[[2]int32]bool{}
	for _, rp := range r.Pairs() {
		for _, sp := range s.Pairs() {
			if rp.Y == sp.Y {
				out[[2]int32{rp.X, sp.X}] = true
			}
		}
	}
	return out
}

func checkSet(t *testing.T, got [][2]int32, want map[[2]int32]bool, label string) {
	t.Helper()
	gm := map[[2]int32]bool{}
	for _, p := range got {
		if gm[p] {
			t.Fatalf("%s: duplicate pair %v", label, p)
		}
		gm[p] = true
	}
	if len(gm) != len(want) {
		t.Fatalf("%s: %d pairs, want %d", label, len(gm), len(want))
	}
	for p := range want {
		if !gm[p] {
			t.Fatalf("%s: missing %v", label, p)
		}
	}
}

func TestAllBaselinesAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	for trial := 0; trial < 10; trial++ {
		r := randomRel(rng, "R", 200+rng.Intn(400), 5+rng.Intn(60), 5+rng.Intn(30))
		s := randomRel(rng, "S", 200+rng.Intn(400), 5+rng.Intn(60), 5+rng.Intn(30))
		want := brute(r, s)
		checkSet(t, HashJoinDedup(r, s), want, "hash")
		checkSet(t, SortMergeJoinDedup(r, s), want, "sortmerge")
		checkSet(t, SystemXJoinDedup(r, s), want, "systemx")
		checkSet(t, EmptyHeadedJoin(r, s, 1), want, "emptyheaded")
		checkSet(t, EmptyHeadedJoin(r, s, 4), want, "emptyheaded-par")
	}
}

func TestSortMergeOutputSorted(t *testing.T) {
	rng := rand.New(rand.NewSource(52))
	r := randomRel(rng, "R", 300, 30, 20)
	s := randomRel(rng, "S", 300, 30, 20)
	got := SortMergeJoinDedup(r, s)
	for i := 1; i < len(got); i++ {
		a, b := got[i-1], got[i]
		if packPair(a[0], a[1]) >= packPair(b[0], b[1]) {
			t.Fatalf("output not strictly sorted at %d: %v then %v", i, a, b)
		}
	}
}

func TestSystemXManyRuns(t *testing.T) {
	// Dense instance producing a full join larger than one run, so the
	// multi-run merge path is exercised... with a smaller run constant we
	// simulate by checking correctness on a clique-ish instance.
	var ps []relation.Pair
	for x := int32(0); x < 120; x++ {
		for y := int32(0); y < 60; y++ {
			if (x+y)%2 == 0 {
				ps = append(ps, relation.Pair{X: x, Y: y})
			}
		}
	}
	r := relation.FromPairs("R", ps)
	want := brute(r, r)
	checkSet(t, SystemXJoinDedup(r, r), want, "systemx dense")
}

func TestMergeRuns(t *testing.T) {
	runs := [][]uint64{
		{1, 3, 5},
		{2, 3, 6},
		{},
		{5, 7},
	}
	got := mergeRuns(runs)
	want := []uint64{1, 2, 3, 5, 6, 7}
	if len(got) != len(want) {
		t.Fatalf("mergeRuns returned %d values, want %d", len(got), len(want))
	}
	for i, w := range want {
		if packPair(got[i][0], got[i][1]) != w {
			t.Fatalf("mergeRuns[%d] = %v, want packed %d", i, got[i], w)
		}
	}
	if out := mergeRuns(nil); len(out) != 0 {
		t.Fatal("mergeRuns(nil) should be empty")
	}
}

func TestEmptyInputs(t *testing.T) {
	empty := relation.FromPairs("E", nil)
	r := relation.FromPairs("R", []relation.Pair{{X: 1, Y: 1}})
	if got := HashJoinDedup(empty, r); len(got) != 0 {
		t.Fatalf("hash join with empty = %v", got)
	}
	if got := EmptyHeadedJoin(empty, r, 2); len(got) != 0 {
		t.Fatalf("emptyheaded with empty = %v", got)
	}
	if got := SystemXJoinDedup(empty, empty); len(got) != 0 {
		t.Fatalf("systemx empty = %v", got)
	}
}

func TestEmptyHeadedDenseAndSparsePaths(t *testing.T) {
	// Dense: small y-domain, large sets → bitset path.
	var dense []relation.Pair
	for x := int32(0); x < 40; x++ {
		for y := int32(0); y < 32; y++ {
			if (int(x)+int(y))%3 != 0 {
				dense = append(dense, relation.Pair{X: x, Y: y})
			}
		}
	}
	dr := relation.FromPairs("D", dense)
	checkSet(t, EmptyHeadedJoin(dr, dr, 2), brute(dr, dr), "dense path")

	// Sparse: huge y-domain, tiny sets → galloping path.
	rng := rand.New(rand.NewSource(53))
	var sparse []relation.Pair
	for x := int32(0); x < 200; x++ {
		for d := 0; d < 2; d++ {
			sparse = append(sparse, relation.Pair{X: x, Y: int32(rng.Intn(100000))})
		}
	}
	sr := relation.FromPairs("S", sparse)
	checkSet(t, EmptyHeadedJoin(sr, sr, 2), brute(sr, sr), "sparse path")
}

func TestPackUnpack(t *testing.T) {
	cases := [][2]int32{{0, 0}, {1, 2}, {-1, 5}, {5, -1}, {1 << 30, -(1 << 30)}}
	for _, c := range cases {
		if got := unpackPair(packPair(c[0], c[1])); got != c {
			t.Fatalf("round trip %v → %v", c, got)
		}
	}
}

// The Postgres-style plan extended to Q★k: enumerate the full star join and
// deduplicate the projected tuples in a hash set (wcoj.ProjectStar).
func TestHashJoinDedupStar(t *testing.T) {
	rng := rand.New(rand.NewSource(54))
	rels := []*relation.Relation{
		randomRel(rng, "R1", 120, 10, 8),
		randomRel(rng, "R2", 120, 10, 8),
		randomRel(rng, "R3", 120, 10, 8),
	}
	got := wcoj.ProjectStar(rels)
	seen := map[[3]int32]bool{}
	for _, tp := range got {
		key := [3]int32{tp[0], tp[1], tp[2]}
		if seen[key] {
			t.Fatalf("duplicate star tuple %v", key)
		}
		seen[key] = true
	}
	// Brute force count.
	want := map[[3]int32]bool{}
	for _, p1 := range rels[0].Pairs() {
		for _, p2 := range rels[1].Pairs() {
			if p1.Y != p2.Y {
				continue
			}
			for _, p3 := range rels[2].Pairs() {
				if p1.Y == p3.Y {
					want[[3]int32{p1.X, p2.X, p3.X}] = true
				}
			}
		}
	}
	if len(seen) != len(want) {
		t.Fatalf("star dedup = %d tuples, want %d", len(seen), len(want))
	}
}

// Property: all four baselines produce the identical result set.
func TestQuickBaselinesAgree(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		r := randomRel(rng, "R", 1+rng.Intn(200), 1+rng.Intn(30), 1+rng.Intn(20))
		s := randomRel(rng, "S", 1+rng.Intn(200), 1+rng.Intn(30), 1+rng.Intn(20))
		want := brute(r, s)
		for _, got := range [][][2]int32{
			HashJoinDedup(r, s),
			SortMergeJoinDedup(r, s),
			SystemXJoinDedup(r, s),
			EmptyHeadedJoin(r, s, 2),
		} {
			if len(got) != len(want) {
				return false
			}
			for _, p := range got {
				if !want[p] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
