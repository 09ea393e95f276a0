package bsi_test

import (
	"fmt"

	"repro/internal/bsi"
	"repro/internal/relation"
)

// Batch a set of "do these sets intersect?" queries into one join-project
// evaluation (Section 3.3).
func ExampleAnswerBatch() {
	r := relation.FromPairs("sets", []relation.Pair{
		{X: 1, Y: 10}, {X: 1, Y: 11},
		{X: 2, Y: 11},
		{X: 3, Y: 12},
	})
	batch := []bsi.Query{
		{A: 1, B: 2}, // share 11
		{A: 1, B: 3}, // disjoint
		{A: 2, B: 3}, // disjoint
	}
	answers := bsi.AnswerBatch(r, r, batch, bsi.Options{UseMM: true, Workers: 1})
	fmt.Println(answers)
	// Output:
	// [true false false]
}
