package bsi

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/dataset"
	"repro/internal/relation"
)

func randomRel(rng *rand.Rand, name string, n, xdom, ydom int) *relation.Relation {
	ps := make([]relation.Pair, n)
	for i := range ps {
		ps[i] = relation.Pair{X: int32(rng.Intn(xdom)), Y: int32(rng.Intn(ydom))}
	}
	return relation.FromPairs(name, ps)
}

func TestAnswerSingle(t *testing.T) {
	r := relation.FromPairs("R", []relation.Pair{{X: 1, Y: 10}, {X: 2, Y: 20}})
	s := relation.FromPairs("S", []relation.Pair{{X: 5, Y: 10}, {X: 6, Y: 30}})
	if !AnswerSingle(r, s, Query{A: 1, B: 5}) {
		t.Fatal("sets 1 and 5 share y=10")
	}
	if AnswerSingle(r, s, Query{A: 2, B: 5}) {
		t.Fatal("sets 2 and 5 are disjoint")
	}
	if AnswerSingle(r, s, Query{A: 99, B: 5}) {
		t.Fatal("absent set should not intersect")
	}
}

func TestAnswerBatchMatchesSingle(t *testing.T) {
	rng := rand.New(rand.NewSource(81))
	r := randomRel(rng, "R", 600, 60, 40)
	s := randomRel(rng, "S", 600, 60, 40)
	batch := RandomWorkload(r, s, 200, 7)
	for _, useMM := range []bool{true, false} {
		got := AnswerBatch(r, s, batch, Options{UseMM: useMM, Workers: 2})
		if len(got) != len(batch) {
			t.Fatalf("useMM=%v: %d answers for %d queries", useMM, len(got), len(batch))
		}
		for i, q := range batch {
			want := AnswerSingle(r, s, q)
			if got[i] != want {
				t.Fatalf("useMM=%v: query %v = %v, want %v", useMM, q, got[i], want)
			}
		}
	}
}

func TestAnswerBatchEmpty(t *testing.T) {
	r := relation.FromPairs("R", []relation.Pair{{X: 1, Y: 1}})
	if got := AnswerBatch(r, r, nil, Options{UseMM: true}); got != nil {
		t.Fatalf("empty batch = %v", got)
	}
}

func TestAnswerBatchDuplicateQueries(t *testing.T) {
	r := relation.FromPairs("R", []relation.Pair{{X: 1, Y: 10}, {X: 2, Y: 10}})
	batch := []Query{{A: 1, B: 2}, {A: 1, B: 2}, {A: 2, B: 1}}
	got := AnswerBatch(r, r, batch, Options{UseMM: true})
	for i, v := range got {
		if !v {
			t.Fatalf("answer %d should be true", i)
		}
	}
}

func TestRandomWorkload(t *testing.T) {
	rng := rand.New(rand.NewSource(82))
	r := randomRel(rng, "R", 100, 20, 10)
	w := RandomWorkload(r, r, 50, 1)
	if len(w) != 50 {
		t.Fatalf("workload size %d, want 50", len(w))
	}
	for _, q := range w {
		if r.ByX().Pos(q.A) < 0 || r.ByX().Pos(q.B) < 0 {
			t.Fatalf("workload query %v references absent set", q)
		}
	}
	// Deterministic in seed.
	w2 := RandomWorkload(r, r, 50, 1)
	for i := range w {
		if w[i] != w2[i] {
			t.Fatal("workload not deterministic")
		}
	}
	empty := relation.FromPairs("E", nil)
	if RandomWorkload(empty, r, 5, 1) != nil {
		t.Fatal("workload over empty relation should be nil")
	}
}

func TestSimulateDelay(t *testing.T) {
	r, _ := dataset.ByName("Jokes", 0.1)
	res := SimulateDelay(r, r, 1000, 50, 2, Options{UseMM: true}, 3)
	if res.BatchSize != 50 {
		t.Fatalf("batch size %d", res.BatchSize)
	}
	if res.ComputeTime <= 0 || res.AvgDelay < res.ComputeTime {
		t.Fatalf("times inconsistent: compute=%v delay=%v", res.ComputeTime, res.AvgDelay)
	}
	if res.UnitsNeeded < 1 {
		t.Fatalf("units = %d", res.UnitsNeeded)
	}
	if res.String() == "" {
		t.Fatal("empty String()")
	}
}

func TestProp2Model(t *testing.T) {
	c, lat, mach := Prop2Model(1e6, 1000)
	if c <= 0 || lat <= 0 || mach <= 0 {
		t.Fatal("model values must be positive")
	}
	// Larger N → larger latency; larger B → smaller latency.
	_, lat2, _ := Prop2Model(1e8, 1000)
	if lat2 <= lat {
		t.Fatal("latency should grow with N")
	}
	_, lat3, _ := Prop2Model(1e6, 10000)
	if lat3 >= lat {
		t.Fatal("latency should shrink with B")
	}
}

// Property: batched answers always match per-query answers.
func TestQuickBatchMatchesSingle(t *testing.T) {
	f := func(seed int64, useMM bool) bool {
		rng := rand.New(rand.NewSource(seed))
		r := randomRel(rng, "R", 1+rng.Intn(300), 1+rng.Intn(40), 1+rng.Intn(25))
		s := randomRel(rng, "S", 1+rng.Intn(300), 1+rng.Intn(40), 1+rng.Intn(25))
		batch := RandomWorkload(r, s, 1+rng.Intn(60), seed)
		got := AnswerBatch(r, s, batch, Options{UseMM: useMM, Workers: 2})
		for i, q := range batch {
			if got[i] != AnswerSingle(r, s, q) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
