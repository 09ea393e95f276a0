package sketch

import (
	"repro/internal/wcoj"

	"repro/internal/relation"
)

// EstimateJoinProjectHLL streams the full 2-path join once, sketching the
// projected pairs with HyperLogLog, and returns the estimated |OUT|.
// Runs in O(|OUT⋈|) time and O(2^p) memory — the memory-free alternative to
// exact deduplication that Section 9 calls for.
func EstimateJoinProjectHLL(r, s *relation.Relation, p uint8) float64 {
	h := NewHLL(p)
	wcoj.EnumerateJoin([]*relation.Relation{r, s}, func(_ int32, lists [][]int32) {
		for _, x := range lists[0] {
			for _, z := range lists[1] {
				h.Add(PairKey(x, z))
			}
		}
	})
	return h.Estimate()
}
