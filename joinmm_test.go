package joinmm_test

import (
	"testing"

	joinmm "repro"
	"repro/internal/dataset"
)

func TestPublicAPIRoundTrip(t *testing.T) {
	r := joinmm.NewRelation("toy", []joinmm.Pair{
		{X: 1, Y: 10}, {X: 2, Y: 10}, {X: 3, Y: 11}, {X: 4, Y: 11},
	})
	eng := joinmm.New(joinmm.WithWorkers(2))
	pairs, plan := eng.JoinProject(r, r)
	// {1,2}×{1,2} ∪ {3,4}×{3,4} = 8 ordered pairs including self-pairs.
	if len(pairs) != 8 {
		t.Fatalf("JoinProject returned %d pairs, want 8 (plan %s)", len(pairs), plan.Strategy)
	}
}

func TestPublicAPIApplications(t *testing.T) {
	r, _ := dataset.ByName("Jokes", 0.05)
	eng := joinmm.New()

	sim := eng.SimilarSets(r, 2)
	ordered := eng.SimilarSetsOrdered(r, 2)
	if len(sim) != len(ordered) {
		t.Fatalf("similar sets: unordered %d, ordered %d", len(sim), len(ordered))
	}
	for i := 1; i < len(ordered); i++ {
		if ordered[i-1].Overlap < ordered[i].Overlap {
			t.Fatal("ordered output not descending")
		}
	}

	_ = eng.ContainedSets(r)

	queries := []joinmm.IntersectionQuery{}
	ix := r.ByX()
	for i := 0; i+1 < ix.NumKeys() && i < 20; i += 2 {
		queries = append(queries, joinmm.IntersectionQuery{A: ix.Key(i), B: ix.Key(i + 1)})
	}
	ans := eng.IntersectBatch(r, r, queries)
	if len(ans) != len(queries) {
		t.Fatalf("IntersectBatch: %d answers for %d queries", len(ans), len(queries))
	}
}

func TestPublicReduceAndJoinSize(t *testing.T) {
	r := joinmm.NewRelation("R", []joinmm.Pair{{X: 1, Y: 1}, {X: 2, Y: 9}})
	s := joinmm.NewRelation("S", []joinmm.Pair{{X: 5, Y: 1}})
	red := joinmm.Reduce(r, s)
	if red[0].Size() != 1 || red[1].Size() != 1 {
		t.Fatalf("Reduce sizes = %d, %d; want 1, 1", red[0].Size(), red[1].Size())
	}
	if joinmm.FullJoinSize(r, s) != 1 {
		t.Fatalf("FullJoinSize = %d, want 1", joinmm.FullJoinSize(r, s))
	}
}

// TestStarJoinPublic: the 3-star over one relation whose two x values share
// a y, asked as query text under the MM pin, is every one of the 2³ tuples.
func TestStarJoinPublic(t *testing.T) {
	eng := joinmm.New(joinmm.WithStrategy(joinmm.ForceMM))
	if _, err := eng.Register("R", []joinmm.Pair{{X: 1, Y: 7}, {X: 2, Y: 7}}); err != nil {
		t.Fatal(err)
	}
	res, err := eng.Query("Q(a, b, c) :- R(a, y), R(b, y), R(c, y)")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Tuples) != 8 {
		t.Fatalf("3-star over 2 values = %d tuples, want 8", len(res.Tuples))
	}
}
