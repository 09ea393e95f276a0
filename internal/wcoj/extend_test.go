package wcoj

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"repro/internal/relation"
)

// instance is one random join for the extension: atoms over nvars variables
// (cycles, parallel atoms and isolated variables included), per-variable
// domains, and a seed prefix.
type instance struct {
	nvars   int
	atoms   [][2]int
	rels    []*relation.Relation
	domains [][]int32
	seeds   []int
}

func randomInstance(rng *rand.Rand) instance {
	const dom = 6
	in := instance{nvars: 2 + rng.Intn(4)}
	for i, n := 0, rng.Intn(2*in.nvars); i < n; i++ {
		a, b := rng.Intn(in.nvars), rng.Intn(in.nvars)
		if a == b {
			continue
		}
		in.atoms = append(in.atoms, [2]int{a, b})
		in.rels = append(in.rels, randomRel(rng, fmt.Sprint("A", i), 4+rng.Intn(14), dom, dom))
	}
	touched := make([]bool, in.nvars)
	for _, a := range in.atoms {
		touched[a[0]], touched[a[1]] = true, true
	}
	in.domains = make([][]int32, in.nvars)
	for v := range in.domains {
		// A variable no atom touches is bound by its domain alone; others get
		// one a third of the time. Empty domains are the caller's early out,
		// so none is generated.
		if touched[v] && rng.Intn(3) != 0 {
			continue
		}
		for x := int32(0); x < dom; x++ {
			if rng.Intn(3) != 0 {
				in.domains[v] = append(in.domains[v], x)
			}
		}
		if in.domains[v] == nil {
			in.domains[v] = []int32{int32(rng.Intn(dom))}
		}
	}
	if rng.Intn(2) == 0 {
		in.seeds = rng.Perm(in.nvars)[:1+rng.Intn(2)]
	}
	return in
}

// free lists the variables the seeds leave unbound.
func (in *instance) free() []int {
	var free []int
	for v := 0; v < in.nvars; v++ {
		if !slices.Contains(in.seeds, v) {
			free = append(free, v)
		}
	}
	return free
}

// brute enumerates dom^nvars assignments with nested loops and keeps those
// satisfying every domain, the seed values and every atom — except an atom
// between two seeds, which the extension by contract takes as given (it is
// where a caller's seed tuple came from).
func (in *instance) brute(seedVals []int32) [][]int32 {
	const dom = 6
	var out [][]int32
	assign := make([]int32, in.nvars)
	var loop func(v int)
	loop = func(v int) {
		if v == in.nvars {
			for i, a := range in.atoms {
				seeded := slices.Contains(in.seeds, a[0]) && slices.Contains(in.seeds, a[1])
				if !seeded && !in.rels[i].Contains(assign[a[0]], assign[a[1]]) {
					return
				}
			}
			out = append(out, slices.Clone(assign))
			return
		}
		if i := slices.Index(in.seeds, v); i >= 0 {
			assign[v] = seedVals[i]
			loop(v + 1)
			return
		}
		for x := int32(0); x < dom; x++ {
			if in.domains[v] == nil || slices.Contains(in.domains[v], x) {
				assign[v] = x
				loop(v + 1)
			}
		}
	}
	loop(0)
	return out
}

func sortAssignments(rows [][]int32) {
	sort.Slice(rows, func(i, j int) bool { return slices.Compare(rows[i], rows[j]) < 0 })
}

// TestSearchMatchesNestedLoops: on random cyclic instances with domains,
// domain-only variables and seeds, the extension visits exactly the
// assignments nested loops find, each once; and a visit that returns false
// stops the search after that one witness.
func TestSearchMatchesNestedLoops(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	for trial := 0; trial < 400; trial++ {
		in := randomInstance(rng)
		// The contract: every root has a domain. Give the full one to any
		// lacking it (the brute force ranges over the same values, so nothing
		// else changes).
		plan := NewPlan(in.atoms, in.seeds, in.free())
		for _, v := range plan.Roots() {
			if in.domains[v] == nil {
				in.domains[v] = []int32{0, 1, 2, 3, 4, 5}
			}
		}
		for rep := 0; rep < 3; rep++ {
			seedVals := make([]int32, len(in.seeds))
			assign := make([]int32, in.nvars)
			for i, v := range in.seeds {
				seedVals[i] = int32(rng.Intn(6))
				assign[v] = seedVals[i]
			}
			want := in.brute(seedVals)

			var got [][]int32
			s := plan.Search(in.rels, in.domains, nil, func(a []int32) bool {
				got = append(got, slices.Clone(a))
				return true
			})
			if err := s.Run(assign); err != nil {
				t.Fatal(err)
			}
			sortAssignments(got)
			sortAssignments(want)
			if !slices.EqualFunc(got, want, slices.Equal[[]int32]) {
				t.Fatalf("trial %d: atoms %v seeds %v=%v domains %v\n got %v\nwant %v",
					trial, in.atoms, in.seeds, seedVals, in.domains, got, want)
			}

			visits := 0
			s = plan.Search(in.rels, in.domains, nil, func([]int32) bool { visits++; return false })
			if err := s.Run(assign); err != nil {
				t.Fatal(err)
			}
			if wantVisits := min(len(want), 1); visits != wantVisits {
				t.Fatalf("trial %d: boolean search made %d visits, want %d", trial, visits, wantVisits)
			}
		}
	}
}

// TestSearchPollTrips: a poll that fails mid-search surfaces as Run's error —
// the visits so far are a strict prefix the caller must discard — and a poll
// that never fails changes nothing.
func TestSearchPollTrips(t *testing.T) {
	// Three domain-only variables: 24³ leaves, so the poll fires a few times.
	dom := make([]int32, 24)
	for i := range dom {
		dom[i] = int32(i)
	}
	plan := NewPlan(nil, nil, []int{0, 1, 2})
	domains := [][]int32{dom, dom, dom}
	const total = 24 * 24 * 24

	polls, visits := 0, 0
	s := plan.Search(nil, domains, func() error { polls++; return nil }, func([]int32) bool { visits++; return true })
	if err := s.Run(make([]int32, 3)); err != nil || visits != total || polls != (total+24*24+24+1)/pollEvery {
		t.Fatalf("untripped: err %v, %d visits, %d polls", err, visits, polls)
	}

	boom := errors.New("deadline")
	for trip := 1; trip <= polls; trip++ {
		n, visits := 0, 0
		s := plan.Search(nil, domains, func() error {
			if n++; n == trip {
				return boom
			}
			return nil
		}, func([]int32) bool { visits++; return true })
		if err := s.Run(make([]int32, 3)); !errors.Is(err, boom) {
			t.Fatalf("trip at poll %d: Run = %v, want the poll's error", trip, err)
		}
		if visits >= total || n != trip {
			t.Fatalf("trip at poll %d: %d visits, %d polls — the search kept going", trip, visits, n)
		}
	}
}

// TestSearchTreeStepsDoNotAllocate pins the tightness the view layer relies
// on: once bound, running a tree-shaped plan per seed allocates nothing.
func TestSearchTreeStepsDoNotAllocate(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	// Chain 0–1–2–3 seeded at {0, 1}, plus a branch 1–4.
	atoms := [][2]int{{0, 1}, {1, 2}, {3, 2}, {1, 4}}
	rels := make([]*relation.Relation, len(atoms))
	for i := range rels {
		rels[i] = randomRel(rng, fmt.Sprint("A", i), 200, 12, 12)
	}
	sum := 0
	s := NewPlan(atoms, []int{0, 1}, []int{2, 3, 4}).Search(rels, nil, nil, func(a []int32) bool {
		sum += int(a[4])
		return true
	})
	assign := make([]int32, 5)
	seeds := rels[0].Pairs()
	allocs := testing.AllocsPerRun(20, func() {
		for _, p := range seeds {
			assign[0], assign[1] = p.X, p.Y
			if err := s.Run(assign); err != nil {
				t.Fatal(err)
			}
		}
	})
	if allocs != 0 || sum == 0 {
		t.Fatalf("%v allocs per %d seeded runs (sum %d)", allocs, len(seeds), sum)
	}
}
