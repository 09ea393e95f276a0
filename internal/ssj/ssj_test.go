package ssj

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/dataset"
	"repro/internal/relation"
)

// bruteSSJ computes the exact similar-pair set by pairwise intersection.
func bruteSSJ(r *relation.Relation, c int) map[Pair]int32 {
	ix := r.ByX()
	out := map[Pair]int32{}
	for i := 0; i < ix.NumKeys(); i++ {
		for j := i + 1; j < ix.NumKeys(); j++ {
			ov := relation.IntersectCount(ix.List(i), ix.List(j))
			if ov >= c {
				out[Pair{A: ix.Key(i), B: ix.Key(j)}] = int32(ov)
			}
		}
	}
	return out
}

func randomSets(rng *rand.Rand, numSets, domain, maxSize int) *relation.Relation {
	var ps []relation.Pair
	for s := 0; s < numSets; s++ {
		size := 1 + rng.Intn(maxSize)
		for e := 0; e < size; e++ {
			ps = append(ps, relation.Pair{X: int32(s), Y: int32(rng.Intn(domain))})
		}
	}
	return relation.FromPairs("sets", ps)
}

func checkPairs(t *testing.T, got []Pair, want map[Pair]int32, label string) {
	t.Helper()
	seen := map[Pair]bool{}
	for _, p := range got {
		if p.A >= p.B {
			t.Fatalf("%s: unnormalized pair %+v", label, p)
		}
		if seen[p] {
			t.Fatalf("%s: duplicate pair %+v", label, p)
		}
		seen[p] = true
		if _, ok := want[p]; !ok {
			t.Fatalf("%s: spurious pair %+v", label, p)
		}
	}
	if len(seen) != len(want) {
		t.Fatalf("%s: %d pairs, want %d", label, len(seen), len(want))
	}
}

func TestMMJoinSmall(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	r := randomSets(rng, 40, 30, 12)
	for c := 1; c <= 4; c++ {
		want := bruteSSJ(r, c)
		checkPairs(t, MMJoin(r, c, Options{}), want, "MMJoin")
	}
}

func TestMMJoinOrdered(t *testing.T) {
	rng := rand.New(rand.NewSource(62))
	r := randomSets(rng, 50, 25, 10)
	c := 2
	want := bruteSSJ(r, c)
	got := MMJoinOrdered(r, c, Options{Workers: 2})
	if len(got) != len(want) {
		t.Fatalf("ordered: %d pairs, want %d", len(got), len(want))
	}
	for i, sp := range got {
		if want[Pair{A: sp.A, B: sp.B}] != sp.Overlap {
			t.Fatalf("pair %+v overlap = %d, want %d", sp, sp.Overlap, want[Pair{A: sp.A, B: sp.B}])
		}
		if i > 0 && got[i-1].Overlap < sp.Overlap {
			t.Fatalf("ordered output not descending at %d", i)
		}
	}
}

func TestSizeAwareMatchesBrute(t *testing.T) {
	rng := rand.New(rand.NewSource(63))
	for _, c := range []int{1, 2, 3} {
		r := randomSets(rng, 60, 25, 14)
		want := bruteSSJ(r, c)
		checkPairs(t, SizeAware(r, c, Options{}), want, "SizeAware")
	}
}

func TestSizeAwareParallel(t *testing.T) {
	rng := rand.New(rand.NewSource(64))
	r := randomSets(rng, 80, 30, 16)
	want := bruteSSJ(r, 2)
	checkPairs(t, SizeAware(r, 2, Options{Workers: 4}), want, "SizeAware parallel")
}

func TestSizeAwarePPConfigurations(t *testing.T) {
	rng := rand.New(rand.NewSource(65))
	r := randomSets(rng, 70, 28, 15)
	for _, c := range []int{1, 2, 3} {
		want := bruteSSJ(r, c)
		configs := []struct {
			name string
			opt  PPOptions
		}{
			{"noop", PPOptions{}},
			{"light", PPOptions{Light: true}},
			{"heavy", PPOptions{Heavy: true}},
			{"light+heavy", PPOptions{Light: true, Heavy: true}},
			{"prefix", PPOptions{Heavy: true, Prefix: true}},
			{"prefix-depth2", PPOptions{Heavy: true, Prefix: true, MaxPrefixDepth: 2}},
			{"all-parallel", PPOptions{Options: Options{Workers: 4}, Light: true, Heavy: true}},
		}
		for _, cfg := range configs {
			checkPairs(t, SizeAwarePP(r, c, cfg.opt), want, cfg.name)
		}
	}
}

func TestGetSizeBoundary(t *testing.T) {
	rng := rand.New(rand.NewSource(66))
	r := randomSets(rng, 50, 20, 12)
	f := newFamily(r)
	x := GetSizeBoundary(f, 2)
	if x < 1 {
		t.Fatalf("boundary %d < 1", x)
	}
	// Boundary for empty family.
	empty := newFamily(relation.FromPairs("E", nil))
	if got := GetSizeBoundary(empty, 2); got != 1 {
		t.Fatalf("empty boundary = %d, want 1", got)
	}
}

func TestForEachCSubset(t *testing.T) {
	set := []int32{1, 2, 3, 4}
	var subsets [][]int32
	forEachCSubset(set, 2, func(s []int32) {
		cp := append([]int32(nil), s...)
		subsets = append(subsets, cp)
	})
	if len(subsets) != 6 { // C(4,2)
		t.Fatalf("C(4,2) = %d subsets, want 6", len(subsets))
	}
	seen := map[[2]int32]bool{}
	for _, s := range subsets {
		if s[0] >= s[1] {
			t.Fatalf("subset %v not ascending", s)
		}
		seen[[2]int32{s[0], s[1]}] = true
	}
	if len(seen) != 6 {
		t.Fatal("duplicate subsets")
	}
	// c > |set| yields nothing.
	count := 0
	forEachCSubset([]int32{1, 2}, 3, func([]int32) { count++ })
	if count != 0 {
		t.Fatalf("c > |set| enumerated %d subsets", count)
	}
}

func TestSubsetGenCost(t *testing.T) {
	if subsetGenCost(3, 5) != 0 {
		t.Fatal("size < c should cost 0")
	}
	if got := subsetGenCost(4, 2); got != 12 { // C(4,2)*2
		t.Fatalf("subsetGenCost(4,2) = %v, want 12", got)
	}
	if subsetGenCost(10000, 6) <= 0 {
		t.Fatal("large cost should be positive (clamped)")
	}
}

func TestOrderPairs(t *testing.T) {
	rng := rand.New(rand.NewSource(67))
	r := randomSets(rng, 40, 20, 10)
	c := 2
	want := bruteSSJ(r, c)
	pairs := SizeAware(r, c, Options{})
	scored := OrderPairs(r, pairs)
	if len(scored) != len(want) {
		t.Fatalf("OrderPairs: %d, want %d", len(scored), len(want))
	}
	for i, sp := range scored {
		if want[Pair{A: sp.A, B: sp.B}] != sp.Overlap {
			t.Fatalf("overlap mismatch for %+v", sp)
		}
		if i > 0 && scored[i-1].Overlap < sp.Overlap {
			t.Fatal("not sorted by overlap desc")
		}
	}
}

func TestOnDatasetShapes(t *testing.T) {
	// Small scales keep brute force feasible while exercising realistic
	// degree distributions.
	for _, name := range []string{"DBLP", "Jokes"} {
		r, _ := dataset.ByName(name, 0.02)
		c := 2
		want := bruteSSJ(r, c)
		checkPairs(t, MMJoin(r, c, Options{}), want, name+"/MMJoin")
		checkPairs(t, SizeAware(r, c, Options{}), want, name+"/SizeAware")
		checkPairs(t, SizeAwarePP(r, c, PPOptions{Heavy: true, Light: true}), want, name+"/PP")
		checkPairs(t, SizeAwarePP(r, c, PPOptions{Heavy: true, Prefix: true}), want, name+"/PP-prefix")
	}
}

func TestHighOverlapClusters(t *testing.T) {
	// Near-identical sets: the prefix tree's sharing case.
	var ps []relation.Pair
	for s := int32(0); s < 20; s++ {
		for e := int32(0); e < 15; e++ {
			if (int(s)+int(e))%7 != 0 {
				ps = append(ps, relation.Pair{X: s, Y: e})
			}
		}
	}
	r := relation.FromPairs("clusters", ps)
	for _, c := range []int{2, 5, 10} {
		want := bruteSSJ(r, c)
		checkPairs(t, SizeAwarePP(r, c, PPOptions{Heavy: true, Prefix: true}), want, "clusters-prefix")
		checkPairs(t, MMJoin(r, c, Options{}), want, "clusters-mm")
	}
}

func TestEmptyAndSingleton(t *testing.T) {
	empty := relation.FromPairs("E", nil)
	if got := MMJoin(empty, 2, Options{}); len(got) != 0 {
		t.Fatalf("MMJoin on empty = %v", got)
	}
	if got := SizeAware(empty, 2, Options{}); len(got) != 0 {
		t.Fatalf("SizeAware on empty = %v", got)
	}
	single := relation.FromPairs("one", []relation.Pair{{X: 1, Y: 1}, {X: 1, Y: 2}})
	if got := SizeAwarePP(single, 1, PPOptions{Heavy: true, Prefix: true}); len(got) != 0 {
		t.Fatalf("single set should produce no pairs, got %v", got)
	}
}

func TestNegativeElementValues(t *testing.T) {
	// Element ids may be arbitrary int32 values, including negatives; the
	// prefix tree's depth-capped keys must not collide.
	var ps []relation.Pair
	rng := rand.New(rand.NewSource(77))
	for s := int32(0); s < 25; s++ {
		for e := 0; e < 8; e++ {
			ps = append(ps, relation.Pair{X: s, Y: int32(rng.Intn(20)) - 10})
		}
	}
	r := relation.FromPairs("neg", ps)
	for _, c := range []int{1, 2, 3} {
		want := bruteSSJ(r, c)
		checkPairs(t, SizeAwarePP(r, c, PPOptions{Heavy: true, Prefix: true, MaxPrefixDepth: 2}), want, "neg-prefix-capped")
		checkPairs(t, MMJoin(r, c, Options{}), want, "neg-mm")
		checkPairs(t, SizeAware(r, c, Options{}), want, "neg-sizeaware")
	}
}

func TestCBelowOne(t *testing.T) {
	rng := rand.New(rand.NewSource(68))
	r := randomSets(rng, 30, 20, 8)
	want := bruteSSJ(r, 1)
	checkPairs(t, MMJoin(r, 0, Options{}), want, "c=0 clamps to 1")
}

// Property: all four algorithms agree on random instances for random c.
func TestQuickAllAlgorithmsAgree(t *testing.T) {
	f := func(seed int64, craw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		c := 1 + int(craw%4)
		r := randomSets(rng, 5+rng.Intn(50), 5+rng.Intn(25), 1+rng.Intn(12))
		want := bruteSSJ(r, c)
		for _, got := range [][]Pair{
			MMJoin(r, c, Options{}),
			SizeAware(r, c, Options{}),
			SizeAwarePP(r, c, PPOptions{Heavy: true, Light: true}),
			SizeAwarePP(r, c, PPOptions{Heavy: true, Prefix: true}),
		} {
			if len(got) != len(want) {
				return false
			}
			for _, p := range got {
				if _, ok := want[p]; !ok {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// Property: ordered output is a permutation of unordered output sorted by
// overlap.
func TestQuickOrderedConsistent(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		r := randomSets(rng, 5+rng.Intn(40), 5+rng.Intn(20), 1+rng.Intn(10))
		c := 2
		unordered := MMJoin(r, c, Options{})
		ordered := MMJoinOrdered(r, c, Options{})
		if len(unordered) != len(ordered) {
			return false
		}
		up := make([]Pair, len(unordered))
		copy(up, unordered)
		op := make([]Pair, len(ordered))
		for i, sp := range ordered {
			op[i] = Pair{A: sp.A, B: sp.B}
		}
		less := func(ps []Pair) func(i, j int) bool {
			return func(i, j int) bool {
				if ps[i].A != ps[j].A {
					return ps[i].A < ps[j].A
				}
				return ps[i].B < ps[j].B
			}
		}
		sort.Slice(up, less(up))
		sort.Slice(op, less(op))
		for i := range up {
			if up[i] != op[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}
