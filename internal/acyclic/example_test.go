package acyclic_test

import (
	"fmt"
	"sort"

	"repro/internal/acyclic"
	"repro/internal/relation"
)

// Who can reach whom in two hops: π_{x0,x2}(Follows ⋈ Follows).
func ExamplePathProject() {
	follows := relation.FromPairs("follows", []relation.Pair{
		{X: 1, Y: 2}, {X: 2, Y: 3}, {X: 2, Y: 4}, {X: 3, Y: 4},
	})
	pairs := acyclic.PathProject([]*relation.Relation{follows, follows}, acyclic.Options{})
	sort.Slice(pairs, func(i, j int) bool {
		if pairs[i][0] != pairs[j][0] {
			return pairs[i][0] < pairs[j][0]
		}
		return pairs[i][1] < pairs[j][1]
	})
	for _, p := range pairs {
		fmt.Printf("%d reaches %d in two hops\n", p[0], p[1])
	}
	// Output:
	// 1 reaches 3 in two hops
	// 1 reaches 4 in two hops
	// 2 reaches 4 in two hops
}

// Boolean chain reachability without enumerating the output.
func ExampleReachable() {
	hop := relation.FromPairs("hop", []relation.Pair{
		{X: 1, Y: 5}, {X: 5, Y: 9},
	})
	fmt.Println(acyclic.Reachable([]*relation.Relation{hop, hop}, 1, 9, acyclic.Options{}))
	fmt.Println(acyclic.Reachable([]*relation.Relation{hop, hop}, 5, 9, acyclic.Options{}))
	// Output:
	// true
	// false
}
