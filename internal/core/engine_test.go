package core

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"repro/internal/acyclic"
	"repro/internal/bsi"
	"repro/internal/dataset"
	"repro/internal/joinproject"
	"repro/internal/optimizer"
	"repro/internal/query"
	"repro/internal/relation"
)

func randomRel(rng *rand.Rand, name string, n, xdom, ydom int) *relation.Relation {
	ps := make([]relation.Pair, n)
	for i := range ps {
		ps[i] = relation.Pair{X: int32(rng.Intn(xdom)), Y: int32(rng.Intn(ydom))}
	}
	return relation.FromPairs(name, ps)
}

func brute(r, s *relation.Relation) map[[2]int32]int32 {
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

func TestStrategiesAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(91))
	r := randomRel(rng, "R", 800, 60, 30)
	s := randomRel(rng, "S", 800, 60, 30)
	want := brute(r, s)
	for _, strat := range []Strategy{Auto, ForceMM, ForceWCOJ, ForceNonMM} {
		eng := NewEngine(WithStrategy(strat), WithWorkers(2))
		got, plan := eng.JoinProject(r, s)
		if len(got) != len(want) {
			t.Fatalf("%v (plan %s): %d pairs, want %d", strat, plan.Strategy, len(got), len(want))
		}
		for _, p := range got {
			if _, ok := want[p]; !ok {
				t.Fatalf("%v: spurious pair %v", strat, p)
			}
		}
		counts, _ := eng.JoinProjectCounts(r, s)
		if len(counts) != len(want) {
			t.Fatalf("%v counts: %d pairs, want %d", strat, len(counts), len(want))
		}
		for _, pc := range counts {
			if want[[2]int32{pc.X, pc.Z}] != pc.Count {
				t.Fatalf("%v: pair (%d,%d) count %d, want %d", strat, pc.X, pc.Z, pc.Count, want[[2]int32{pc.X, pc.Z}])
			}
		}
	}
}

// TestAutoPlanChoices: the planner falls back to WCOJ on a sparse road
// network and picks MM on a dense image relation, as the fold node of the
// predicted plan reports. The constants are pinned: on Image the two plans
// price within the near-margin band, so probed constants could flip it.
func TestAutoPlanChoices(t *testing.T) {
	eng := NewEngine(WithOptimizerConstants(optimizer.Constants{Ts: 0.5, Tm: 6, TI: 4}))
	for _, tc := range []struct {
		name  string
		scale float64
		want  string
	}{{"RoadNet", 0.3, "wcoj"}, {"Image", 0.4, "mm"}} {
		r, _ := dataset.ByName(tc.name, tc.scale)
		if _, err := eng.Register(tc.name, r.Pairs()); err != nil {
			t.Fatal(err)
		}
		plan, err := eng.ExplainQuery(fmt.Sprintf("Q(x, z) :- %[1]s(x, y), %[1]s(z, y)", tc.name))
		if err != nil {
			t.Fatal(err)
		}
		folds := 0
		plan.Walk(func(n *query.Node) {
			if n.Op == "fold" {
				folds++
				if n.Strategy != tc.want {
					t.Errorf("%s: fold strategy %q, want %q", tc.name, n.Strategy, tc.want)
				}
			}
		})
		if folds != 1 {
			t.Fatalf("%s: %d fold nodes, want 1:\n%s", tc.name, folds, plan)
		}
	}
}

// TestStarJoinStrategies evaluates the 3-star text under every strategy pin
// and worker count and compares its rows with a nested-loop oracle, over
// three random relations and over one relation joined with itself.
func TestStarJoinStrategies(t *testing.T) {
	rng := rand.New(rand.NewSource(93))
	eng := NewEngine()
	for _, name := range []string{"R1", "R2", "R3"} {
		if err := eng.RegisterRelation(randomRel(rng, name, 300, 20, 12)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := eng.Register("T", []relation.Pair{{X: 1, Y: 7}, {X: 2, Y: 7}}); err != nil {
		t.Fatal(err)
	}
	for _, body := range [][3]string{{"R1", "R2", "R3"}, {"T", "T", "T"}} {
		var want [][]int64
		seen := map[[3]int32]bool{}
		rels := make([][]relation.Pair, 3)
		for i, name := range body {
			r, _ := eng.Catalog().Get(name)
			rels[i] = r.Pairs()
		}
		for _, a := range rels[0] {
			for _, b := range rels[1] {
				for _, c := range rels[2] {
					if k := [3]int32{a.X, b.X, c.X}; a.Y == b.Y && b.Y == c.Y && !seen[k] {
						seen[k] = true
						want = append(want, []int64{int64(a.X), int64(b.X), int64(c.X)})
					}
				}
			}
		}
		query.SortTuples(want)
		for _, strat := range []string{"auto", "mm", "nonmm"} {
			for _, workers := range []int{1, 2} {
				src := fmt.Sprintf("Q(a, b, c) :- %s(a, y), %s(b, y), %s(c, y) WITH strategy=%s, workers=%d",
					body[0], body[1], body[2], strat, workers)
				res, err := eng.Query(src)
				if err != nil {
					t.Fatal(err)
				}
				if strat != "auto" && !strings.Contains(res.Plan.String(), "star strategy="+strat) {
					t.Fatalf("%s: no %s star node:\n%s", src, strat, res.Plan)
				}
				query.SortTuples(res.Tuples)
				if !reflect.DeepEqual(res.Tuples, want) {
					t.Fatalf("%s: %d rows, want the oracle's %d\n%s", src, len(res.Tuples), len(want), res.Plan)
				}
			}
		}
	}
}

func TestSimilarAndContainedSets(t *testing.T) {
	rng := rand.New(rand.NewSource(94))
	r := randomRel(rng, "R", 300, 40, 20)
	mm := NewEngine()
	comb := NewEngine(WithStrategy(ForceNonMM))
	simMM := mm.SimilarSets(r, 2)
	simComb := comb.SimilarSets(r, 2)
	if len(simMM) != len(simComb) {
		t.Fatalf("SSJ mismatch: mm=%d comb=%d", len(simMM), len(simComb))
	}
	ordered := mm.SimilarSetsOrdered(r, 2)
	if len(ordered) != len(simMM) {
		t.Fatalf("ordered SSJ size %d, want %d", len(ordered), len(simMM))
	}
	scjMM := mm.ContainedSets(r)
	scjComb := comb.ContainedSets(r)
	if len(scjMM) != len(scjComb) {
		t.Fatalf("SCJ mismatch: mm=%d comb=%d", len(scjMM), len(scjComb))
	}
}

func TestIntersectBatch(t *testing.T) {
	rng := rand.New(rand.NewSource(95))
	r := randomRel(rng, "R", 400, 50, 25)
	s := randomRel(rng, "S", 400, 50, 25)
	queries := bsi.RandomWorkload(r, s, 100, 5)
	for _, strat := range []Strategy{Auto, ForceNonMM} {
		eng := NewEngine(WithStrategy(strat))
		got := eng.IntersectBatch(r, s, queries)
		for i, q := range queries {
			if got[i] != bsi.AnswerSingle(r, s, q) {
				t.Fatalf("%v: query %v wrong", strat, q)
			}
		}
	}
}

func TestPlanString(t *testing.T) {
	cases := []Plan{
		{Strategy: "mm", Delta1: 3, Delta2: 4, EstOut: 100, OutJoin: 1000},
		{Strategy: "wcoj", OutJoin: 50},
		{Strategy: "nonmm", Delta1: 1, Delta2: 1},
	}
	for _, p := range cases {
		if p.String() == "" {
			t.Fatalf("empty String for %+v", p)
		}
	}
	if got := (Plan{Strategy: "wcoj", OutJoin: 5}).String(); got != "plan=wcoj |OUT⋈|=5 (≤ 20·N fallback)" {
		t.Fatalf("wcoj plan string = %q", got)
	}
}

func TestStrategyString(t *testing.T) {
	cases := map[Strategy]string{Auto: "auto", ForceMM: "mm", ForceWCOJ: "wcoj", ForceNonMM: "nonmm", Strategy(9): "strategy(9)"}
	for s, want := range cases {
		if s.String() != want {
			t.Fatalf("%d.String() = %s, want %s", int(s), s.String(), want)
		}
	}
}

func TestOptimizerAccessor(t *testing.T) {
	if NewEngine().Optimizer() == nil {
		t.Fatal("engine should expose its optimizer")
	}
}

// TestEngineGroupByAndTopK: the group-by count of the self 2-path, asked as
// query text, matches the nested-loop distinct partners per x; the first k
// pairs of the ordered similar-sets join are in decreasing overlap and carry
// the oracle's overlaps.
func TestEngineGroupByAndTopK(t *testing.T) {
	rng := rand.New(rand.NewSource(100))
	r := randomRel(rng, "R", 400, 40, 20)
	eng := NewEngine(WithWorkers(2))
	if err := eng.RegisterRelation(r); err != nil {
		t.Fatal(err)
	}
	want := brute(r, r)
	wantDistinct := map[int64]int64{}
	for p := range want {
		wantDistinct[int64(p[0])]++
	}
	res, err := eng.Query("Q(x, COUNT(z)) :- R(x, y), R(z, y)")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Tuples) != len(wantDistinct) {
		t.Fatalf("%d groups, want %d", len(res.Tuples), len(wantDistinct))
	}
	for _, g := range res.Tuples {
		if g[1] != wantDistinct[g[0]] {
			t.Fatalf("group %d: distinct %d, want %d", g[0], g[1], wantDistinct[g[0]])
		}
	}
	top := eng.SimilarSetsOrdered(r, 1)
	if len(top) > 5 {
		top = top[:5]
	}
	if len(top) == 0 {
		t.Fatal("ordered similar sets returned no pairs")
	}
	for i, p := range top {
		if i > 0 && top[i-1].Overlap < p.Overlap {
			t.Fatal("top pairs not descending")
		}
		if got := want[[2]int32{p.A, p.B}]; p.Overlap != got {
			t.Fatalf("pair (%d, %d): overlap %d, want %d", p.A, p.B, p.Overlap, got)
		}
	}
}

// TestEngineViewsAndMutations covers the engine façade of the view
// subsystem: register, serve, maintain under Mutate, explain, list, drop —
// and that mutations keep plan caching per-relation.
func TestEngineViewsAndMutations(t *testing.T) {
	eng := NewEngine(WithWorkers(2))
	pairs := func(ps ...[2]int32) []relation.Pair {
		out := make([]relation.Pair, len(ps))
		for i, p := range ps {
			out[i] = relation.Pair{X: p[0], Y: p[1]}
		}
		return out
	}
	if _, err := eng.Register("R", pairs([2]int32{1, 10}, [2]int32{2, 10})); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Register("S", pairs([2]int32{10, 5})); err != nil {
		t.Fatal(err)
	}
	v, err := eng.RegisterView(context.Background(), "vp", "V(x, z) :- R(x, y), S(y, z)")
	if err != nil {
		t.Fatal(err)
	}
	_, tuples, _, err := v.Result(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(tuples) != 2 {
		t.Fatalf("initial view rows = %d, want 2", len(tuples))
	}

	// Mutations patch the view.
	if _, err := eng.Mutate("S", pairs([2]int32{10, 6}), nil); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Mutate("R", nil, pairs([2]int32{2, 10})); err != nil {
		t.Fatal(err)
	}
	_, tuples, fresh, err := v.Result(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(tuples) != 2 { // (1,5), (1,6)
		t.Fatalf("maintained view rows = %v", tuples)
	}
	if fresh.Mode != "incremental" || fresh.Stale {
		t.Fatalf("freshness = %+v", fresh)
	}
	if plan := v.MaintenancePlan().String(); !strings.Contains(plan, "deltafold") {
		t.Fatalf("maintenance plan missing deltafold:\n%s", plan)
	}

	if infos := eng.Views(); len(infos) != 1 || infos[0].Name != "vp" {
		t.Fatalf("Views() = %+v", infos)
	}
	if _, ok := eng.View("vp"); !ok {
		t.Fatal("View lookup failed")
	}

	// The query path agrees with the view store.
	res, err := eng.Query("V(x, z) :- R(x, y), S(y, z)")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Tuples) != len(tuples) {
		t.Fatalf("query rows %d != view rows %d", len(res.Tuples), len(tuples))
	}

	if ok, err := eng.DropView("vp"); !ok || err != nil {
		t.Fatalf("DropView: ok=%v err=%v", ok, err)
	}
	if ok, err := eng.DropView("vp"); ok || err != nil {
		t.Fatal("DropView semantics")
	}
}

// TestPlanningEntryPointsAgree: the library call, the composition primitive
// and the text query's fold node plan the same dense (R, S) through the same
// seam, so they must report the same label, thresholds and estimates.
func TestPlanningEntryPointsAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	// Every y value occurs in both relations, so the query's semijoin
	// reduction leaves the operands as they are.
	r := randomRel(rng, "R", 1500, 30, 20)
	s := randomRel(rng, "S", 1500, 30, 20)
	eng := NewEngine(WithWorkers(1), WithOptimizerConstants(optimizer.Constants{Ts: 0.5, Tm: 6, TI: 4}))
	for _, rel := range []*relation.Relation{r, s} {
		if err := eng.RegisterRelation(rel); err != nil {
			t.Fatal(err)
		}
	}

	_, plan := eng.JoinProject(r, s)
	if plan.Strategy != "mm" || plan.Delta1 < 1 || plan.Delta2 < 1 || plan.OutJoin == 0 {
		t.Fatalf("dense instance should plan mm with thresholds and estimates, got %+v", plan)
	}

	_, step := acyclic.Compose(r, s.Swap(), acyclic.Options{
		Optimizer: eng.Optimizer(), Join: joinproject.Options{Workers: 1}})
	if got := (Plan{step.Strategy, step.Delta1, step.Delta2, step.EstOut, step.OutJoin}); got != plan {
		t.Errorf("acyclic.Compose step = %+v, JoinProject plan = %+v", got, plan)
	}

	res, err := eng.Query("Q(x, z) :- R(x, y), S(z, y)")
	if err != nil {
		t.Fatal(err)
	}
	folds := 0
	res.Plan.Walk(func(n *query.Node) {
		if n.Op != "fold" {
			return
		}
		folds++
		if got := (Plan{n.Strategy, n.Delta1, n.Delta2, n.EstOut, n.OutJoin}); got != plan {
			t.Errorf("query fold node = %+v, JoinProject plan = %+v", got, plan)
		}
	})
	if folds != 1 {
		t.Fatalf("query plan has %d fold nodes, want 1:\n%s", folds, res.Plan)
	}

	// A nonmm pin runs the Lemma-2 kernel and says so.
	pinned := NewEngine(WithWorkers(1), WithStrategy(ForceNonMM))
	if _, got := pinned.JoinProject(r, s); got.Strategy != "nonmm" {
		t.Fatalf("JoinProject under ForceNonMM = %+v", got)
	}
}
