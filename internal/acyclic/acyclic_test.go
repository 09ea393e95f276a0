package acyclic

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/joinproject"
	"repro/internal/relation"
)

// The chain, snowflake and reachability shapes below are what the query
// executor collapses with Compose folds once semijoin reduction has run.
// These tests stack the folds by hand, in both fold orders, and compare the
// answers with brute force.

// PathProject evaluates π_{x0,xk}(R1(x0,x1) ⋈ ... ⋈ Rk(x_{k-1},x_k)) as a
// left-deep sequence of Compose folds. Relations are oriented head→tail: Ri's
// first column joins R(i−1)'s second.
func PathProject(rels []*relation.Relation, opt Options) [][2]int32 {
	return pairsOf(foldChain(rels, opt, false))
}

// foldChain folds a non-empty chain to its (head, tail) relation: left-deep,
// or, with bushy, each half folded on its own before the halves are composed.
func foldChain(rels []*relation.Relation, opt Options, bushy bool) *relation.Relation {
	if len(rels) == 1 {
		return rels[0]
	}
	if bushy {
		mid := len(rels) / 2
		v, _ := Compose(foldChain(rels[:mid], opt, true), foldChain(rels[mid:], opt, true), opt)
		return v
	}
	acc := rels[0]
	for _, next := range rels[1:] {
		acc, _ = Compose(acc, next, opt)
	}
	return acc
}

// Reachable reports whether the chain connects head value a to tail value c,
// folding it with both end relations restricted to the constants first.
func Reachable(rels []*relation.Relation, a, c int32, opt Options) bool {
	ends := slices.Clone(rels)
	ends[0] = ends[0].RestrictXSet([]int32{a})
	last := len(ends) - 1
	ends[last] = ends[last].Swap().RestrictXSet([]int32{c}).Swap()
	return foldChain(ends, opt, false).Contains(a, c)
}

// snowflakeProject evaluates a star whose arms are chains oriented outward
// from the shared center, projected onto the arm leaves. Each arm folds to a
// (center, leaf) view and the views join on the center with the Section-3.2
// star kernel; a single arm has nothing to join, so its answer is the view's
// distinct leaves.
func snowflakeProject(arms [][]*relation.Relation, opt Options) [][]int32 {
	views := make([]*relation.Relation, len(arms))
	for i, arm := range arms {
		views[i] = foldChain(arm, opt, false).Swap()
	}
	if len(views) == 1 {
		var out [][]int32
		for _, leaf := range views[0].ByX().Keys() {
			out = append(out, []int32{leaf})
		}
		return out
	}
	return joinproject.StarMM(views, opt.Join)
}

func pairsOf(r *relation.Relation) [][2]int32 {
	out := make([][2]int32, 0, r.Size())
	for _, p := range r.Pairs() {
		out = append(out, [2]int32{p.X, p.Y})
	}
	return out
}

func randomRel(rng *rand.Rand, name string, n, xdom, ydom int) *relation.Relation {
	ps := make([]relation.Pair, n)
	for i := range ps {
		ps[i] = relation.Pair{X: int32(rng.Intn(xdom)), Y: int32(rng.Intn(ydom))}
	}
	return relation.FromPairs(name, ps)
}

// brutePath enumerates the projected path query by explicit nested joins.
func brutePath(rels []*relation.Relation) map[[2]int32]bool {
	// frontier: head value → set of reachable current values.
	frontier := map[int32]map[int32]bool{}
	for _, p := range rels[0].Pairs() {
		if frontier[p.X] == nil {
			frontier[p.X] = map[int32]bool{}
		}
		frontier[p.X][p.Y] = true
	}
	for _, r := range rels[1:] {
		next := map[int32]map[int32]bool{}
		for head, mids := range frontier {
			for mid := range mids {
				for _, tail := range r.ByX().Lookup(mid) {
					if next[head] == nil {
						next[head] = map[int32]bool{}
					}
					next[head][tail] = true
				}
			}
		}
		frontier = next
	}
	out := map[[2]int32]bool{}
	for head, tails := range frontier {
		for tail := range tails {
			out[[2]int32{head, tail}] = true
		}
	}
	return out
}

func checkPath(t *testing.T, got [][2]int32, want map[[2]int32]bool, label string) {
	t.Helper()
	seen := map[[2]int32]bool{}
	for _, p := range got {
		if seen[p] {
			t.Fatalf("%s: duplicate %v", label, p)
		}
		seen[p] = true
		if !want[p] {
			t.Fatalf("%s: spurious %v", label, p)
		}
	}
	if len(seen) != len(want) {
		t.Fatalf("%s: %d pairs, want %d", label, len(seen), len(want))
	}
}

func chain(rng *rand.Rand, k, n, dom int) []*relation.Relation {
	rels := make([]*relation.Relation, k)
	for i := range rels {
		rels[i] = randomRel(rng, "R", n, dom, dom)
	}
	return rels
}

func TestPathProjectTwoHops(t *testing.T) {
	rng := rand.New(rand.NewSource(111))
	rels := chain(rng, 2, 300, 30)
	want := brutePath(rels)
	for _, bushy := range []bool{false, true} {
		checkPath(t, pairsOf(foldChain(rels, Options{}, bushy)), want, "2-hop")
	}
}

func TestPathProjectLongChains(t *testing.T) {
	rng := rand.New(rand.NewSource(112))
	for _, k := range []int{3, 4, 5, 6} {
		rels := chain(rng, k, 200, 20)
		want := brutePath(rels)
		checkPath(t, PathProject(rels, Options{}), want, "left-deep")
		checkPath(t, pairsOf(foldChain(rels, Options{}, true)), want, "bushy")
	}
}

func TestPathProjectSingleRelation(t *testing.T) {
	r := relation.FromPairs("R", []relation.Pair{{X: 1, Y: 2}, {X: 3, Y: 4}})
	got := PathProject([]*relation.Relation{r}, Options{})
	if len(got) != 2 {
		t.Fatalf("single relation path = %v", got)
	}
}

func TestPathProjectDisconnected(t *testing.T) {
	r1 := relation.FromPairs("R1", []relation.Pair{{X: 1, Y: 10}})
	r2 := relation.FromPairs("R2", []relation.Pair{{X: 99, Y: 5}})
	got := PathProject([]*relation.Relation{r1, r2}, Options{})
	if len(got) != 0 {
		t.Fatalf("disconnected chain = %v", got)
	}
}

func TestSnowflake(t *testing.T) {
	rng := rand.New(rand.NewSource(113))
	// Three arms: lengths 1, 2, 2.
	arms := [][]*relation.Relation{
		{randomRel(rng, "A1", 150, 15, 15)},
		{randomRel(rng, "B1", 150, 15, 15), randomRel(rng, "B2", 150, 15, 15)},
		{randomRel(rng, "C1", 150, 15, 15), randomRel(rng, "C2", 150, 15, 15)},
	}
	got := snowflakeProject(arms, Options{})
	// Oracle: fold arms by brute force, then brute-force star join.
	views := make([]map[[2]int32]bool, len(arms)) // (center, leaf)
	for i, arm := range arms {
		views[i] = brutePath(arm)
	}
	want := map[[3]int32]bool{}
	for p1 := range views[0] {
		for p2 := range views[1] {
			if p2[0] != p1[0] {
				continue
			}
			for p3 := range views[2] {
				if p3[0] == p1[0] {
					want[[3]int32{p1[1], p2[1], p3[1]}] = true
				}
			}
		}
	}
	seen := map[[3]int32]bool{}
	for _, tp := range got {
		key := [3]int32{tp[0], tp[1], tp[2]}
		if seen[key] {
			t.Fatalf("duplicate snowflake tuple %v", key)
		}
		seen[key] = true
		if !want[key] {
			t.Fatalf("spurious snowflake tuple %v", key)
		}
	}
	if len(seen) != len(want) {
		t.Fatalf("snowflake: %d tuples, want %d", len(seen), len(want))
	}
}

func TestSnowflakeOneArm(t *testing.T) {
	r := relation.FromPairs("R", []relation.Pair{{X: 1, Y: 5}, {X: 1, Y: 6}, {X: 2, Y: 5}})
	got := snowflakeProject([][]*relation.Relation{{r}}, Options{})
	// Distinct leaves of the arm view: {5, 6}.
	if len(got) != 2 {
		t.Fatalf("one-armed snowflake = %v", got)
	}
}

func TestReachable(t *testing.T) {
	// 1 → 10 → 20 → 30; 2 → 11 (dead end).
	r1 := relation.FromPairs("R1", []relation.Pair{{X: 1, Y: 10}, {X: 2, Y: 11}})
	r2 := relation.FromPairs("R2", []relation.Pair{{X: 10, Y: 20}})
	r3 := relation.FromPairs("R3", []relation.Pair{{X: 20, Y: 30}})
	rels := []*relation.Relation{r1, r2, r3}
	if !Reachable(rels, 1, 30, Options{}) {
		t.Fatal("1 should reach 30")
	}
	if Reachable(rels, 2, 30, Options{}) {
		t.Fatal("2 should not reach 30")
	}
	if !Reachable([]*relation.Relation{r1}, 1, 10, Options{}) {
		t.Fatal("single-hop reachability failed")
	}
	if Reachable([]*relation.Relation{r1}, 2, 10, Options{}) {
		t.Fatal("2 has no single hop to 10")
	}
}

// Property: left-deep and bushy fold orders agree with brute force for random
// chains and random thresholds.
func TestQuickPathOrdersAgree(t *testing.T) {
	f := func(seed int64, d uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		k := 2 + rng.Intn(4)
		rels := chain(rng, k, 1+rng.Intn(120), 2+rng.Intn(14))
		want := brutePath(rels)
		opt := Options{Join: joinproject.Options{Delta1: 1 + int(d%8), Delta2: 1 + int(d%8), Workers: 2}}
		for _, bushy := range []bool{false, true} {
			got := pairsOf(foldChain(rels, opt, bushy))
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
