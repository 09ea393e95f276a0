package core

import (
	"context"
	"math/rand"
	"strings"
	"sync"
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

func TestAutoPlanChoices(t *testing.T) {
	sparse, _ := dataset.ByName("RoadNet", 0.3)
	eng := NewEngine()
	if plan := eng.Explain(sparse, sparse); plan.Strategy != "wcoj" {
		t.Fatalf("sparse plan = %s, want wcoj", plan.Strategy)
	}
	dense, _ := dataset.ByName("Image", 0.4)
	if plan := eng.Explain(dense, dense); plan.Strategy != "mm" {
		t.Fatalf("dense plan = %s, want mm", plan.Strategy)
	}
}

func TestThresholdOverride(t *testing.T) {
	rng := rand.New(rand.NewSource(92))
	r := randomRel(rng, "R", 400, 40, 20)
	eng := NewEngine(WithStrategy(ForceMM), WithThresholds(3, 5))
	got, plan := eng.JoinProject(r, r)
	if plan.Delta1 != 3 || plan.Delta2 != 5 {
		t.Fatalf("plan thresholds (%d,%d), want (3,5)", plan.Delta1, plan.Delta2)
	}
	if len(got) != len(brute(r, r)) {
		t.Fatal("override changed the result")
	}
}

func TestStarJoinStrategies(t *testing.T) {
	rng := rand.New(rand.NewSource(93))
	rels := []*relation.Relation{
		randomRel(rng, "R1", 300, 20, 12),
		randomRel(rng, "R2", 300, 20, 12),
		randomRel(rng, "R3", 300, 20, 12),
	}
	var base map[string]bool
	for _, strat := range []Strategy{Auto, ForceMM, ForceNonMM} {
		eng := NewEngine(WithStrategy(strat), WithWorkers(2))
		got, _ := eng.StarJoin(rels)
		set := map[string]bool{}
		for _, xs := range got {
			key := ""
			for _, v := range xs {
				key += string(rune(v)) + ","
			}
			set[key] = true
		}
		if base == nil {
			base = set
			continue
		}
		if len(set) != len(base) {
			t.Fatalf("%v star: %d tuples, want %d", strat, len(set), len(base))
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

func TestEngineCompressView(t *testing.T) {
	rng := rand.New(rand.NewSource(96))
	r := randomRel(rng, "R", 400, 40, 20)
	eng := NewEngine()
	v := eng.CompressView(r, r)
	want := brute(r, r)
	if v.Count() != int64(len(want)) {
		t.Fatalf("view count %d, want %d", v.Count(), len(want))
	}
	for p := range want {
		if !v.Contains(p[0], p[1]) {
			t.Fatalf("view missing %v", p)
		}
	}
}

func TestSketchRefinedPlanning(t *testing.T) {
	dense, _ := dataset.ByName("Image", 0.4)
	eng := NewEngine(WithSketchRefinement(1 << 30))
	plan := eng.Explain(dense, dense)
	if plan.Strategy != "mm" {
		t.Fatalf("sketch-refined plan = %s, want mm", plan.Strategy)
	}
	out, _ := eng.JoinProject(dense, dense)
	base, _ := NewEngine().JoinProject(dense, dense)
	if len(out) != len(base) {
		t.Fatalf("sketch refinement changed the result: %d vs %d", len(out), len(base))
	}
}

func TestEngineGroupByAndTopK(t *testing.T) {
	rng := rand.New(rand.NewSource(100))
	r := randomRel(rng, "R", 400, 40, 20)
	eng := NewEngine(WithWorkers(2))
	groups := eng.GroupByCount(r, r)
	want := brute(r, r)
	wantDistinct := map[int32]int64{}
	for p := range want {
		wantDistinct[p[0]]++
	}
	if len(groups) != len(wantDistinct) {
		t.Fatalf("%d groups, want %d", len(groups), len(wantDistinct))
	}
	for _, g := range groups {
		if g.Distinct != wantDistinct[g.X] {
			t.Fatalf("group %d: distinct %d, want %d", g.X, g.Distinct, wantDistinct[g.X])
		}
	}
	top := eng.TopSimilarSets(r, 1, 5)
	if len(top) == 0 || len(top) > 5 {
		t.Fatalf("TopSimilarSets returned %d pairs", len(top))
	}
	for i := 1; i < len(top); i++ {
		if top[i-1].Overlap < top[i].Overlap {
			t.Fatal("top pairs not descending")
		}
	}
}

func TestJoinProjectVisit(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	r := randomRel(rng, "R", 500, 50, 25)
	want := brute(r, r)
	var mu sync.Mutex
	got := map[[2]int32]int32{}
	eng := NewEngine(WithWorkers(4))
	plan := eng.JoinProjectVisit(r, r, func(x, z, n int32) {
		mu.Lock()
		got[[2]int32{x, z}] += n
		mu.Unlock()
	})
	if plan.Strategy == "" {
		t.Fatal("missing plan")
	}
	if len(got) != len(want) {
		t.Fatalf("visit saw %d pairs, want %d", len(got), len(want))
	}
	for p, c := range want {
		if got[p] != c {
			t.Fatalf("pair %v count %d, want %d", p, got[p], c)
		}
	}
}

func TestEngineKWaySimilar(t *testing.T) {
	rng := rand.New(rand.NewSource(98))
	r := randomRel(rng, "R", 250, 25, 15)
	eng := NewEngine()
	tuples := eng.KWaySimilarSets(r, 3, 2)
	for _, tp := range tuples {
		if len(tp.Sets) != 3 || tp.Overlap < 2 {
			t.Fatalf("bad k-way tuple %+v", tp)
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

	// A nonmm pin: the materializing entry points run the Lemma-2 kernel and
	// say so; the visit entry point has only the MM kernel and must report
	// that, at the thresholds the pin resolved.
	pinned := NewEngine(WithWorkers(1), WithStrategy(ForceNonMM))
	_, pinnedPlan := pinned.JoinProject(r, s)
	if pinnedPlan.Strategy != "nonmm" {
		t.Fatalf("JoinProject under ForceNonMM = %+v", pinnedPlan)
	}
	pinnedPlan.Strategy = "mm"
	if got := pinned.JoinProjectVisit(r, s, func(x, z, count int32) {}); got != pinnedPlan {
		t.Errorf("JoinProjectVisit under ForceNonMM = %+v, want %+v", got, pinnedPlan)
	}
}
