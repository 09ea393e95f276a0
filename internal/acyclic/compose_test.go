package acyclic

import (
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"repro/internal/joinproject"
	"repro/internal/optimizer"
	"repro/internal/relation"
)

// sameIndex requires two indexes to agree key by key, list by list and in
// the position they report for every key.
func sameIndex(t *testing.T, label string, got, want *relation.Index) {
	t.Helper()
	if !slices.Equal(got.Keys(), want.Keys()) {
		t.Fatalf("%s: keys %v, want %v", label, got.Keys(), want.Keys())
	}
	for i, k := range want.Keys() {
		if !slices.Equal(got.List(i), want.List(i)) {
			t.Fatalf("%s: list of %d = %v, want %v", label, k, got.List(i), want.List(i))
		}
		if got.Pos(k) != i || got.Offset(i) != want.Offset(i) {
			t.Fatalf("%s: key %d at position %d offset %d, want %d and %d", label, k, got.Pos(k), got.Offset(i), i, want.Offset(i))
		}
	}
}

func sameRelation(t *testing.T, label string, got, want *relation.Relation) {
	t.Helper()
	if got.Size() != want.Size() {
		t.Fatalf("%s: %d tuples, want %d", label, got.Size(), want.Size())
	}
	sameIndex(t, label+" byX", got.ByX(), want.ByX())
	sameIndex(t, label+" byY", got.ByY(), want.ByY())
}

// nestedLoop is the reference composition π_{a,c}(L(a,b) ⋈ R(b,c)).
func nestedLoop(l, r *relation.Relation) *relation.Relation {
	var ps []relation.Pair
	for _, lp := range l.Pairs() {
		for _, rp := range r.Pairs() {
			if lp.Y == rp.X {
				ps = append(ps, relation.Pair{X: lp.X, Y: rp.Y})
			}
		}
	}
	return relation.FromPairs("ref", ps)
}

// stretch maps ids onto a sparse range (stride far above the span factor),
// so the indexes of the inputs and of the output carry no position table.
func stretch(r *relation.Relation) *relation.Relation {
	ps := r.Pairs()
	for i := range ps {
		ps[i] = relation.Pair{X: ps[i].X*1_000_003 - 1<<30, Y: ps[i].Y*999_983 - 1<<30}
	}
	return relation.FromPairs(r.Name(), ps)
}

// TestComposeMatchesNestedLoop checks the composed relation — both indexes,
// not just the pair set — against FromPairs of the nested-loop answer, for
// every strategy pin, worker count and threshold pin, over compact and
// sparse key ranges, with and without a planner; a non-WCOJ step must report
// the threshold pins it ran with.
func TestComposeMatchesNestedLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(211))
	type input struct {
		name string
		l, r *relation.Relation
	}
	dl, dr := randomRel(rng, "L", 900, 40, 25), randomRel(rng, "R", 900, 25, 35)
	sl, sr := randomRel(rng, "L", 300, 200, 60), randomRel(rng, "R", 300, 60, 200)
	inputs := []input{
		{"dense", dl, dr},
		{"skinny", sl, sr},
		{"dense stretched", stretch(dl), stretch(dr)},
		{"empty left", relation.FromPairs("L", nil), dr},
		{"disjoint", randomRel(rng, "L", 50, 10, 10), stretch(randomRel(rng, "R", 50, 10, 10))},
	}
	deltas := [][2]int{{0, 0}, {1, 1}, {3, 6}, {10, 2}, {100000, 100000}}
	for _, in := range inputs {
		want := nestedLoop(in.l, in.r)
		for _, opt := range []*optimizer.Optimizer{nil, optimizer.NewWithConstants(optimizer.Constants{Ts: 1, Tm: 1, TI: 1})} {
			for _, force := range []string{"", StrategyMM, StrategyWCOJ, StrategyNonMM} {
				for _, workers := range []int{1, 2, 8} {
					for _, d := range deltas {
						label := fmt.Sprintf("%s planner=%v force=%q workers=%d Δ=%v", in.name, opt != nil, force, workers, d)
						got, step := Compose(in.l, in.r, Options{
							Join:      joinproject.Options{Workers: workers, Delta1: d[0], Delta2: d[1]},
							Optimizer: opt, Force: force,
						})
						sameRelation(t, label, got, want)
						if step.Rows != want.Size() {
							t.Fatalf("%s: step reports %d rows, want %d", label, step.Rows, want.Size())
						}
						if step.Strategy != StrategyWCOJ && d != [2]int{} && (step.Delta1 != d[0] || step.Delta2 != d[1]) {
							t.Fatalf("%s: step reports Δ=(%d,%d), want the pins", label, step.Delta1, step.Delta2)
						}
					}
				}
			}
		}
	}
}

// tripwire is a Stop function that trips for good after a set number of
// polls, safe to poll from several workers.
type tripwire struct {
	mu      sync.Mutex
	after   int
	polls   int
	tripped bool
}

func (w *tripwire) stop() bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.polls++
	w.tripped = w.tripped || w.polls > w.after
	return w.tripped
}

// TestComposeStopIsEmptyNeverPartial trips Stop at every poll count a
// composition reaches: once tripped the result must be empty, whatever part
// of the join had already run.
func TestComposeStopIsEmptyNeverPartial(t *testing.T) {
	rng := rand.New(rand.NewSource(212))
	l, r := randomRel(rng, "L", 4000, 400, 30), randomRel(rng, "R", 4000, 30, 400)
	want := nestedLoop(l, r)
	for _, force := range []string{StrategyMM, StrategyWCOJ, StrategyNonMM} {
		for _, workers := range []int{1, 2, 8} {
			tripAt := 0
			for ; ; tripAt++ {
				wire := tripwire{after: tripAt}
				got, _ := Compose(l, r, Options{
					Join:  joinproject.Options{Workers: workers, Delta1: 3, Delta2: 5, Stop: wire.stop},
					Force: force,
				})
				if wire.tripped {
					if got.Size() != 0 || got.ByX().NumKeys() != 0 || got.ByY().NumKeys() != 0 {
						t.Fatalf("force=%s workers=%d trip after %d polls: %d tuples returned, want none", force, workers, tripAt, got.Size())
					}
					continue
				}
				// Stop never tripped: the run was complete.
				sameRelation(t, fmt.Sprintf("force=%s workers=%d untripped", force, workers), got, want)
				break
			}
			if tripAt < 3 {
				t.Fatalf("force=%s workers=%d: only %d poll points exercised", force, workers, tripAt)
			}
		}
	}
}

// TestComposeAllocatesPerFoldNotPerTuple bounds the allocations of a warm
// composition of two 10k-tuple relations: a fixed number of side arrays,
// per-worker buffers that double as they grow, and the output's two
// indexes — not one object per output tuple (the answer has ~250k) nor per
// key (each operand has 500).
func TestComposeAllocatesPerFoldNotPerTuple(t *testing.T) {
	rng := rand.New(rand.NewSource(213))
	l, r := randomRel(rng, "L", 10000, 500, 100), randomRel(rng, "R", 10000, 100, 500)
	for _, force := range []string{StrategyMM, StrategyWCOJ, StrategyNonMM} {
		opt := Options{Join: joinproject.Options{Workers: 2, Delta1: 90, Delta2: 15}, Force: force}
		out, _ := Compose(l, r, opt)
		if out.Size() < 200000 {
			t.Fatalf("force=%s: only %d output tuples; the bound below would be vacuous", force, out.Size())
		}
		allocs := testing.AllocsPerRun(5, func() { Compose(l, r, opt) })
		if allocs > 150 {
			t.Fatalf("force=%s: %v allocations per Compose, want ≤ 150", force, allocs)
		}
		t.Logf("force=%s: %v allocations per Compose of %d output tuples", force, allocs, out.Size())
	}
}
