package catalog

import (
	"context"
	"fmt"
	"path/filepath"
	"sync"
	"testing"

	"repro/internal/query"
	"repro/internal/relation"
)

func pairs(ps ...[2]int32) []relation.Pair {
	out := make([]relation.Pair, len(ps))
	for i, p := range ps {
		out[i] = relation.Pair{X: p[0], Y: p[1]}
	}
	return out
}

func TestRegisterGetDropEpoch(t *testing.T) {
	c := New()
	if _, ok := c.Get("R"); ok {
		t.Fatal("unexpected relation")
	}
	e0 := c.Epoch()
	if _, err := c.RegisterPairs("R", pairs([2]int32{1, 2})); err != nil {
		t.Fatal(err)
	}
	if c.Epoch() == e0 {
		t.Fatal("epoch should advance on register")
	}
	if r, ok := c.Get("R"); !ok || r.Size() != 1 {
		t.Fatal("missing R")
	}
	if got := c.List(); len(got) != 1 || got[0].Name != "R" {
		t.Fatalf("List = %v", got)
	}
	if ok, err := c.Drop("R"); !ok || err != nil {
		t.Fatalf("drop semantics: ok=%v err=%v", ok, err)
	}
	if ok, err := c.Drop("R"); ok || err != nil {
		t.Fatalf("double drop semantics: ok=%v err=%v", ok, err)
	}
	if err := c.Register("", relation.FromPairs("x", nil)); err == nil {
		t.Fatal("empty name should error")
	}
}

func TestLoadFiles(t *testing.T) {
	dir := t.TempDir()
	specs := map[string]string{}
	for i := 0; i < 4; i++ {
		name := fmt.Sprintf("R%d", i)
		path := filepath.Join(dir, name+".rel")
		r := relation.FromPairs(name, pairs([2]int32{int32(i), int32(i + 1)}))
		if err := r.Save(path); err != nil {
			t.Fatal(err)
		}
		specs[name] = path
	}
	c := New()
	if err := c.LoadFiles(specs); err != nil {
		t.Fatal(err)
	}
	if c.Len() != 4 {
		t.Fatalf("Len = %d", c.Len())
	}
	if err := c.LoadFiles(map[string]string{"bad": filepath.Join(dir, "missing.rel")}); err == nil {
		t.Fatal("expected load error")
	}
}

func TestPlanCacheHitAndEpochInvalidation(t *testing.T) {
	c := New()
	if _, err := c.RegisterPairs("R", pairs([2]int32{1, 10}, [2]int32{10, 5})); err != nil {
		t.Fatal(err)
	}
	src := "Q(a, c) :- R(a, b), R(b, c)"
	if _, hit, err := c.PrepareContext(context.Background(), src); err != nil || hit {
		t.Fatalf("first prepare: hit=%v err=%v", hit, err)
	}
	// Same text (even non-canonical spelling) hits the cache.
	if _, hit, err := c.PrepareContext(context.Background(), "Q(a , c) :- R(a,b), R(b,c)"); err != nil || !hit {
		t.Fatalf("second prepare: hit=%v err=%v", hit, err)
	}
	hits, misses, size := c.CacheStats()
	if hits != 1 || misses != 1 || size != 1 {
		t.Fatalf("stats = %d/%d/%d", hits, misses, size)
	}
	// Registering an unrelated relation bumps the epoch but must NOT evict
	// the still-valid plan over R: cache keys are per-relation versions.
	if _, err := c.RegisterPairs("S", pairs([2]int32{5, 9})); err != nil {
		t.Fatal(err)
	}
	if _, hit, _ := c.PrepareContext(context.Background(), src); !hit {
		t.Fatal("mutating an untouched relation must not evict the cached plan")
	}
	// Mutating R itself invalidates it.
	if _, err := c.InsertPairs("R", pairs([2]int32{2, 10})); err != nil {
		t.Fatal(err)
	}
	if _, hit, _ := c.PrepareContext(context.Background(), src); hit {
		t.Fatal("mutating a referenced relation must invalidate the cached plan")
	}
}

// TestMutateDeltasAndCoalescing covers the tuple-level mutation API: effective
// deltas, batch coalescing, version bumps and subscriber ordering.
func TestMutateDeltasAndCoalescing(t *testing.T) {
	c := New()
	var seen []Mutation
	c.Subscribe(func(m Mutation) { seen = append(seen, m) })
	if _, err := c.RegisterPairs("R", pairs([2]int32{1, 2}, [2]int32{3, 4})); err != nil {
		t.Fatal(err)
	}
	v1 := c.Version("R")
	if v1 == 0 {
		t.Fatal("version should advance on register")
	}

	// Insert one new + one already-present tuple: delta keeps only the new one.
	m, err := c.InsertPairs("R", pairs([2]int32{1, 2}, [2]int32{5, 6}, [2]int32{5, 6}))
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Added) != 1 || m.Added[0] != (relation.Pair{X: 5, Y: 6}) || len(m.Removed) != 0 {
		t.Fatalf("insert delta = %+v", m)
	}
	if m.Version != v1+1 || c.Version("R") != v1+1 {
		t.Fatalf("version = %d, want %d", m.Version, v1+1)
	}
	if r, _ := c.Get("R"); r.Size() != 3 || !r.Contains(5, 6) {
		t.Fatalf("R not updated: %v", r.Stats())
	}

	// Delete one present + one absent tuple.
	m, err = c.DeletePairs("R", pairs([2]int32{3, 4}, [2]int32{9, 9}))
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Removed) != 1 || m.Removed[0] != (relation.Pair{X: 3, Y: 4}) || len(m.Added) != 0 {
		t.Fatalf("delete delta = %+v", m)
	}

	// Insert+delete of the same absent tuple in one batch nets out entirely.
	e0 := c.Epoch()
	m, err = c.Mutate("R", pairs([2]int32{7, 7}), pairs([2]int32{7, 7}))
	if err != nil {
		t.Fatal(err)
	}
	if !m.Empty() {
		t.Fatalf("coalesced batch should be empty: %+v", m)
	}
	if c.Epoch() != e0 {
		t.Fatal("no-op mutation must not bump the epoch")
	}

	// Insert+delete of a present tuple: delete wins.
	m, err = c.Mutate("R", pairs([2]int32{1, 2}), pairs([2]int32{1, 2}))
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Removed) != 1 || len(m.Added) != 0 {
		t.Fatalf("delete-wins batch delta = %+v", m)
	}
	if r, _ := c.Get("R"); r.Contains(1, 2) {
		t.Fatal("tuple should be net-deleted")
	}

	if _, err := c.Mutate("missing", nil, nil); err == nil {
		t.Fatal("mutating an unknown relation should error")
	}

	// Subscribers saw every effective change in order: register + 3 mutations.
	if len(seen) != 4 {
		t.Fatalf("subscriber saw %d mutations, want 4", len(seen))
	}
	if !seen[0].Reset || seen[0].Name != "R" {
		t.Fatalf("first mutation should be the register reset: %+v", seen[0])
	}
	for i := 1; i < len(seen); i++ {
		if seen[i].Version <= seen[i-1].Version {
			t.Fatalf("mutation versions not monotonic: %d then %d", seen[i-1].Version, seen[i].Version)
		}
	}
}

func TestLRUEviction(t *testing.T) {
	c := NewWithCacheSize(2)
	if _, err := c.RegisterPairs("R", pairs([2]int32{1, 2})); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, _, err := c.PrepareContext(context.Background(), fmt.Sprintf("Q%d(x) :- R(x, y)", i)); err != nil {
			t.Fatal(err)
		}
	}
	if _, _, size := c.CacheStats(); size != 2 {
		t.Fatalf("size = %d, want 2", size)
	}
	// Oldest (Q0) evicted, Q2 retained.
	if _, hit, _ := c.PrepareContext(context.Background(), "Q2(x) :- R(x, y)"); !hit {
		t.Fatal("Q2 should be cached")
	}
	if _, hit, _ := c.PrepareContext(context.Background(), "Q0(x) :- R(x, y)"); hit {
		t.Fatal("Q0 should have been evicted")
	}
}

// TestConcurrentUse exercises registration, lookup and prepared execution
// from many goroutines; run with -race.
func TestConcurrentUse(t *testing.T) {
	c := New()
	if _, err := c.RegisterPairs("R", pairs([2]int32{1, 10}, [2]int32{2, 10}, [2]int32{10, 5})); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 30; i++ {
				switch g % 3 {
				case 0:
					name := fmt.Sprintf("T%d", g)
					if _, err := c.RegisterPairs(name, pairs([2]int32{int32(i), 10})); err != nil {
						t.Error(err)
						return
					}
					c.Get(name)
				case 1:
					c.List()
					c.Epoch()
				default:
					p, _, err := c.PrepareContext(context.Background(), "Q(a, c) :- R(a, b), R(b, c)")
					if err != nil {
						t.Error(err)
						return
					}
					if _, err := p.Execute(context.Background(), query.ExecOptions{Workers: 2}); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestCyclicPlansCachedAndWeightBounded covers the PR-3 cache interaction:
// cyclic plans carry compile-time materialized bag rows, are cached like any
// plan while small, and the LRU evicts by aggregate weight, never holding
// more than MaxCachedMaterializedRows bag rows in total.
func TestCyclicPlansCachedAndWeightBounded(t *testing.T) {
	c := New()
	if _, err := c.RegisterPairs("R", pairs([2]int32{1, 2}, [2]int32{2, 3}, [2]int32{3, 1})); err != nil {
		t.Fatal(err)
	}
	src := "Q(x, z) :- R(x, y), R(y, z), R(z, x)"
	p1, hit, err := c.PrepareContext(context.Background(), src)
	if err != nil {
		t.Fatalf("PrepareContext: %v", err)
	}
	if hit {
		t.Fatal("first PrepareContext must miss")
	}
	if p1.MaterializedRows() == 0 {
		t.Fatal("cyclic plan should report materialized bag rows")
	}
	if _, hit, _ := c.PrepareContext(context.Background(), src); !hit {
		t.Fatal("second PrepareContext of a small cyclic plan must hit the cache")
	}

	// The weight-bounded LRU: lighter entries evict older ones to stay
	// within the aggregate budget. planLRU weights come from
	// Prepared.MaterializedRows, so drive it with real compiled cyclic
	// plans: each distinct renaming of the triangle query materializes the
	// same 3 bag rows, so 5 insertions (weight 15) against a cap of 10
	// must evict the oldest entries.
	l := newPlanLRU(100)
	l.weightCap = 10
	mk := func(i int) planKey {
		return planKey{text: fmt.Sprintf("Q(a%d, c%d) :- R(a%d, b%d), R(b%d, c%d), R(c%d, a%d)",
			i, i, i, i, i, i, i, i)}
	}
	for i := 0; i < 5; i++ {
		key := mk(i)
		p, _, err := c.PrepareContext(context.Background(), key.text)
		if err != nil {
			t.Fatalf("PrepareContext(%s): %v", key.text, err)
		}
		if w := p.MaterializedRows(); w != 3 {
			t.Fatalf("triangle plan weight = %d; want 3", w)
		}
		l.put(key, p)
	}
	if l.weight > l.weightCap {
		t.Fatalf("cache weight %d exceeds cap %d", l.weight, l.weightCap)
	}
	if l.len() != 3 {
		t.Fatalf("cached entries = %d; want 3 (two evicted by weight)", l.len())
	}
	if l.get(mk(0)) != nil || l.get(mk(1)) != nil {
		t.Fatal("oldest entries should have been evicted by aggregate weight")
	}
	if l.get(mk(4)) == nil {
		t.Fatal("most recent entry should remain cached")
	}
}
