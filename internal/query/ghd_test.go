package query

import (
	"context"
	"errors"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"repro/internal/relation"
)

// ghdRels builds the shared cyclic-test catalog: R∪S∪T close the triangles
// (1,2,3) and (4,5,6), U adds pendant edges.
func ghdRels(t *testing.T) map[string]*relation.Relation {
	t.Helper()
	return map[string]*relation.Relation{
		"R": rel(t, "R", [2]int32{1, 2}, [2]int32{4, 5}, [2]int32{7, 8}),
		"S": rel(t, "S", [2]int32{2, 3}, [2]int32{5, 6}, [2]int32{8, 9}),
		"T": rel(t, "T", [2]int32{3, 1}, [2]int32{6, 4}, [2]int32{9, 7}, // (9,7) closes (7,8,9) too
			[2]int32{3, 40}),
		"U": rel(t, "U", [2]int32{3, 30}, [2]int32{6, 60}, [2]int32{40, 1}),
	}
}

func TestTriangleBinaryRewrite(t *testing.T) {
	rels := ghdRels(t)
	p, err := Prepare("Q(x, z) :- R(x, y), S(y, z), T(z, x)", MapResolver(rels))
	if err != nil {
		t.Fatalf("Prepare: %v", err)
	}
	res, err := p.Execute(context.Background(), ExecOptions{})
	if err != nil {
		t.Fatalf("Execute: %v", err)
	}
	sortTuples(res.Tuples)
	want := [][]int64{{1, 3}, {4, 6}, {7, 9}}
	if !reflect.DeepEqual(res.Tuples, want) {
		t.Fatalf("triangle = %v; want %v\nplan:\n%s", res.Tuples, want, res.Plan)
	}
	plan := res.Plan.String()
	if !strings.Contains(plan, "ghd width=2 bags=1") {
		t.Errorf("plan missing GHD summary:\n%s", plan)
	}
	if !strings.Contains(plan, "bag {x y z}") {
		t.Errorf("plan missing bag node:\n%s", plan)
	}
	// The single-bag rewrite produces a plain binary edge: no k-ary join.
	if strings.Contains(plan, "bagjoin") {
		t.Errorf("binary rewrite must not use the k-ary bag join:\n%s", plan)
	}
	found := false
	for _, s := range res.Plan.Strategies() {
		if strings.HasPrefix(s, "bag=") {
			found = true
		}
	}
	if !found {
		t.Errorf("bag strategy missing from %v", res.Plan.Strategies())
	}
}

func TestFourCycleMergesBagEdges(t *testing.T) {
	// Q(a,c) over a 4-cycle: two bags, both projecting to (a,c), must merge
	// into one intersected edge.
	rels := ghdRels(t)
	p, err := Prepare("Q(a, c) :- R(a, b), S(b, c), T(c, d), U(d, a)", MapResolver(rels))
	if err != nil {
		t.Fatalf("Prepare: %v", err)
	}
	plan := p.Explain(ExecOptions{}).String()
	if !strings.Contains(plan, "ghd width=2 bags=2") {
		t.Errorf("plan missing two-bag GHD summary:\n%s", plan)
	}
	if !strings.Contains(plan, "∩") {
		t.Errorf("parallel bag edges over (a, c) should intersect:\n%s", plan)
	}
}

func TestTriangleFullHeadUsesBagJoin(t *testing.T) {
	rels := ghdRels(t)
	p, err := Prepare("Q(x, y, z) :- R(x, y), S(y, z), T(z, x)", MapResolver(rels))
	if err != nil {
		t.Fatalf("Prepare: %v", err)
	}
	res, err := p.Execute(context.Background(), ExecOptions{})
	if err != nil {
		t.Fatalf("Execute: %v", err)
	}
	sortTuples(res.Tuples)
	want := [][]int64{{1, 2, 3}, {4, 5, 6}, {7, 8, 9}}
	if !reflect.DeepEqual(res.Tuples, want) {
		t.Fatalf("full-head triangle = %v; want %v\nplan:\n%s", res.Tuples, want, res.Plan)
	}
	if plan := res.Plan.String(); !strings.Contains(plan, "bagjoin") {
		t.Errorf("a ≥3-variable bag must run the k-ary bag join:\n%s", plan)
	}
}

func TestCyclicProvenEmptyAtCompile(t *testing.T) {
	rels := map[string]*relation.Relation{
		"R": rel(t, "R", [2]int32{1, 2}),
		"S": rel(t, "S", [2]int32{2, 3}),
		"T": rel(t, "T", [2]int32{4, 4}), // never closes the triangle
	}
	p, err := Prepare("Q(x, z) :- R(x, y), S(y, z), T(z, x)", MapResolver(rels))
	if err != nil {
		t.Fatalf("Prepare: %v", err)
	}
	if empty, why := p.Empty(); !empty {
		t.Fatalf("want compile-time empty, got satisfiable (%s)", why)
	}
	res, err := p.Execute(context.Background(), ExecOptions{})
	if err != nil {
		t.Fatalf("Execute: %v", err)
	}
	if len(res.Tuples) != 0 {
		t.Fatalf("tuples = %v; want none", res.Tuples)
	}
}

func TestCyclicStrategyPinReachesBags(t *testing.T) {
	rels := ghdRels(t)
	for _, pin := range []string{"mm", "wcoj"} {
		p, err := Prepare("Q(x, z) :- R(x, y), S(y, z), T(z, x) WITH strategy="+pin, MapResolver(rels))
		if err != nil {
			t.Fatalf("Prepare(%s): %v", pin, err)
		}
		res, err := p.Execute(context.Background(), ExecOptions{})
		if err != nil {
			t.Fatalf("Execute(%s): %v", pin, err)
		}
		sortTuples(res.Tuples)
		want := [][]int64{{1, 3}, {4, 6}, {7, 9}}
		if !reflect.DeepEqual(res.Tuples, want) {
			t.Fatalf("pin %s: %v; want %v", pin, res.Tuples, want)
		}
		if !strings.Contains(res.Plan.String(), "bag=") {
			// Strategies() renders op=strategy pairs into the plan only via
			// Strategies; check there instead.
			ok := false
			for _, s := range res.Plan.Strategies() {
				if s == "bag="+pin {
					ok = true
				}
			}
			if !ok {
				t.Errorf("pin %s not visible in bag strategies %v", pin, res.Plan.Strategies())
			}
		}
	}
}

func TestCyclicBooleanAndExistence(t *testing.T) {
	rels := ghdRels(t)
	res := evalText(t, "Q() :- R(x, y), S(y, z), T(z, x)", rels)
	if len(res.Tuples) != 1 || len(res.Tuples[0]) != 0 {
		t.Fatalf("boolean triangle = %v; want one empty tuple", res.Tuples)
	}
	// Cyclic component as pure existence filter beside a head component.
	res = evalText(t, "Q(a) :- U(3, a), R(x, y), S(y, z), T(z, x)", rels)
	sortTuples(res.Tuples)
	if want := [][]int64{{30}}; !reflect.DeepEqual(res.Tuples, want) {
		t.Fatalf("existence-filtered = %v; want %v", res.Tuples, want)
	}
}

func TestCyclicCompileHonorsContext(t *testing.T) {
	rels := ghdRels(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	// A full-head triangle forces the backtracking materializer (the fast
	// fold path only covers 2-variable projections), which polls the
	// context and must abandon compilation.
	const src = "Q(x, y, z) :- R(x, y), S(y, z), T(z, x)"
	_, err := PrepareContext(ctx, src, MapResolver(rels))
	if err == nil {
		t.Fatal("want context error from cancelled cyclic compile")
	}

	// A deadline that fires while the bag search is running: whichever poll
	// sees it, compilation fails — it never returns a truncated bag.
	rng := rand.New(rand.NewSource(31))
	big := map[string]*relation.Relation{}
	for _, name := range []string{"R", "S", "T"} {
		ps := make([]relation.Pair, 2500)
		for i := range ps {
			ps[i] = relation.Pair{X: int32(rng.Intn(60)), Y: int32(rng.Intn(60))}
		}
		big[name] = relation.FromPairs(name, ps)
	}
	count := &trippingContext{Context: context.Background()}
	if _, err := PrepareContext(count, src, MapResolver(big)); err != nil {
		t.Fatal(err)
	}
	if count.polls < 3 {
		t.Fatalf("only %d polls: the bag search is too small to be interrupted", count.polls)
	}
	for trip := 1; trip <= count.polls; trip++ {
		tc := &trippingContext{Context: context.Background(), tripAt: trip}
		if p, err := PrepareContext(tc, src, MapResolver(big)); !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("deadline at poll %d of %d: prepared %v, err %v", trip, count.polls, p != nil, err)
		}
	}
}

// trippingContext counts Err polls and reports DeadlineExceeded from poll
// tripAt on (never, when 0).
type trippingContext struct {
	context.Context
	polls, tripAt int
}

func (c *trippingContext) Err() error {
	if c.polls++; c.tripAt > 0 && c.polls >= c.tripAt {
		return context.DeadlineExceeded
	}
	return nil
}

func TestCyclicCountAggregate(t *testing.T) {
	rels := ghdRels(t)
	res := evalText(t, "Q(COUNT(x)) :- R(x, y), S(y, z), T(z, x)", rels)
	if want := [][]int64{{3}}; !reflect.DeepEqual(res.Tuples, want) {
		t.Fatalf("COUNT over triangle = %v; want %v", res.Tuples, want)
	}
}
