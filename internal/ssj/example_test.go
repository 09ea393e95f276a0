package ssj_test

import (
	"fmt"

	"repro/internal/relation"
	"repro/internal/ssj"
)

func family() *relation.Relation {
	return relation.FromPairs("docs", []relation.Pair{
		{X: 1, Y: 10}, {X: 1, Y: 11}, {X: 1, Y: 12},
		{X: 2, Y: 10}, {X: 2, Y: 11}, {X: 2, Y: 12}, {X: 2, Y: 13},
		{X: 3, Y: 10}, {X: 3, Y: 20},
		{X: 4, Y: 30},
	})
}

// All pairs of documents sharing at least two keywords.
func ExampleMMJoin() {
	pairs := ssj.MMJoin(family(), 2, ssj.Options{Workers: 1})
	for _, p := range pairs {
		fmt.Printf("docs %d and %d are similar\n", p.A, p.B)
	}
	// Output:
	// docs 1 and 2 are similar
}
