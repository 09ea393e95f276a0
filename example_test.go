package joinmm_test

import (
	"fmt"
	"slices"
	"sort"

	joinmm "repro"
)

// The 2-path query π_{x,z}(R(x,y) ⋈ R(z,y)): all pairs of users with a
// common friend, evaluated with automatic cost-based planning.
func ExampleEngine_joinProject() {
	r := joinmm.NewRelation("friends", []joinmm.Pair{
		{X: 1, Y: 10}, {X: 2, Y: 10}, // users 1,2 share friend 10
		{X: 2, Y: 11}, {X: 3, Y: 11}, // users 2,3 share friend 11
	})
	eng := joinmm.New(joinmm.WithWorkers(1))
	pairs, _ := eng.JoinProject(r, r)
	sort.Slice(pairs, func(i, j int) bool {
		if pairs[i][0] != pairs[j][0] {
			return pairs[i][0] < pairs[j][0]
		}
		return pairs[i][1] < pairs[j][1]
	})
	for _, p := range pairs {
		fmt.Println(p[0], p[1])
	}
	// Output:
	// 1 1
	// 1 2
	// 2 1
	// 2 2
	// 2 3
	// 3 2
	// 3 3
}

// Chains and reachability are text queries over registered relations: who
// reaches whom in two hops, π_{a,c}(follows(a,b) ⋈ follows(b,c)), and
// whether a constant-bound chain connects at all.
func ExampleEngine_query() {
	eng := joinmm.New(joinmm.WithWorkers(1))
	eng.Register("follows", []joinmm.Pair{
		{X: 1, Y: 2}, {X: 2, Y: 3}, {X: 2, Y: 4}, {X: 3, Y: 4},
	})
	eng.Register("hop", []joinmm.Pair{{X: 1, Y: 5}, {X: 5, Y: 9}})

	res, err := eng.Query("Q(a, c) :- follows(a, b), follows(b, c)")
	if err != nil {
		panic(err)
	}
	slices.SortFunc(res.Tuples, slices.Compare)
	for _, p := range res.Tuples {
		fmt.Printf("%d reaches %d in two hops\n", p[0], p[1])
	}
	for _, src := range []string{
		"Q() :- hop(1, y), hop(y, 9)",
		"Q() :- hop(5, y), hop(y, 9)",
	} {
		res, err := eng.Query(src)
		if err != nil {
			panic(err)
		}
		fmt.Println(len(res.Tuples) > 0)
	}
	// Output:
	// 1 reaches 3 in two hops
	// 1 reaches 4 in two hops
	// 2 reaches 4 in two hops
	// true
	// false
}

// Witness counts: how many common friends each pair has.
func ExampleEngine_joinProjectCounts() {
	r := joinmm.NewRelation("friends", []joinmm.Pair{
		{X: 1, Y: 10}, {X: 2, Y: 10},
		{X: 1, Y: 11}, {X: 2, Y: 11},
	})
	eng := joinmm.New(joinmm.WithWorkers(1))
	counts, _ := eng.JoinProjectCounts(r, r)
	for _, pc := range counts {
		if pc.X == 1 && pc.Z == 2 {
			fmt.Println("users 1 and 2 share", pc.Count, "friends")
		}
	}
	// Output:
	// users 1 and 2 share 2 friends
}

// Set similarity: pairs of sets sharing at least c elements, ranked.
func ExampleEngine_similarSetsOrdered() {
	r := joinmm.NewRelation("sets", []joinmm.Pair{
		{X: 1, Y: 5}, {X: 1, Y: 6}, {X: 1, Y: 7},
		{X: 2, Y: 5}, {X: 2, Y: 6}, {X: 2, Y: 7}, // overlap(1,2) = 3
		{X: 3, Y: 5}, {X: 3, Y: 9}, // overlap(1,3) = 1
	})
	eng := joinmm.New(joinmm.WithWorkers(1))
	for _, sp := range eng.SimilarSetsOrdered(r, 1) {
		fmt.Printf("sets %d,%d overlap %d\n", sp.A, sp.B, sp.Overlap)
	}
	// Output:
	// sets 1,2 overlap 3
	// sets 1,3 overlap 1
	// sets 2,3 overlap 1
}

// Set containment: which sets are subsets of which.
func ExampleEngine_containedSets() {
	r := joinmm.NewRelation("sets", []joinmm.Pair{
		{X: 1, Y: 5}, {X: 1, Y: 6},
		{X: 2, Y: 5}, {X: 2, Y: 6}, {X: 2, Y: 7},
	})
	eng := joinmm.New(joinmm.WithWorkers(1))
	for _, p := range eng.ContainedSets(r) {
		fmt.Printf("set %d ⊆ set %d\n", p.Sub, p.Sup)
	}
	// Output:
	// set 1 ⊆ set 2
}

// Batched boolean set intersection (Section 3.3).
func ExampleEngine_intersectBatch() {
	r := joinmm.NewRelation("sets", []joinmm.Pair{
		{X: 1, Y: 5}, {X: 2, Y: 5}, {X: 3, Y: 9},
	})
	eng := joinmm.New(joinmm.WithWorkers(1))
	answers := eng.IntersectBatch(r, r, []joinmm.IntersectionQuery{
		{A: 1, B: 2}, // share element 5
		{A: 1, B: 3}, // disjoint
	})
	fmt.Println(answers[0], answers[1])
	// Output:
	// true false
}
