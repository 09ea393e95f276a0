package joinproject

import (
	"math"

	"repro/internal/relation"
)

// EstimateOutputSize implements the Section-5 estimator for |OUT| of the
// 2-path query: |OUT| is bracketed by
//
//	max{|dom(x)|, |dom(z)|, (|OUT⋈|/N)²} ≤ |OUT| ≤ min{|dom(x)|·|dom(z)|, |OUT⋈|}
//
// (the lower bound uses |OUT⋈| ≤ N·√|OUT|), and the estimate is the
// geometric mean of the two bounds. The full join size |OUT⋈| is computed
// exactly during preprocessing.
func EstimateOutputSize(r, s *relation.Relation) int64 {
	return EstimateOutputFromJoinSize(r, s, relation.FullJoinSize(r, s))
}

// EstimateOutputFromJoinSize is EstimateOutputSize for a caller that has
// already computed outJoin = |OUT⋈| = relation.FullJoinSize(r, s).
func EstimateOutputFromJoinSize(r, s *relation.Relation, outJoin int64) int64 {
	if outJoin == 0 {
		return 0
	}
	n := float64(r.Size())
	if s.Size() > r.Size() {
		n = float64(s.Size())
	}
	domX, domZ := float64(r.NumX()), float64(s.NumX())
	lower := math.Max(math.Max(domX, domZ), math.Pow(float64(outJoin)/n, 2))
	upper := math.Min(domX*domZ, float64(outJoin))
	if lower > upper {
		lower = upper
	}
	est := math.Sqrt(lower * upper)
	if est < 1 {
		est = 1
	}
	return int64(est)
}

// HeuristicThresholds returns the paper's closed-form optimal thresholds for
// Algorithm 1 under the ω = 2 cost model (Section 3.1):
//
//	|OUT| ≤ N: Δ1 = |OUT|^{1/3},  Δ2 = N / |OUT|^{2/3}
//	|OUT| > N: Δ1 = Δ2 = (2N² / (N + |OUT|))^{1/3}
//
// with |OUT| replaced by the Section-5 estimate. Both thresholds are clamped
// to [1, N]. The cost-based optimizer (internal/optimizer) refines these
// using calibrated machine constants; these closed forms are the sensible
// default when no optimizer is attached.
func HeuristicThresholds(r, s *relation.Relation) (d1, d2 int) {
	n := float64(r.Size())
	if s.Size() > r.Size() {
		n = float64(s.Size())
	}
	if n == 0 {
		return 1, 1
	}
	out := float64(EstimateOutputSize(r, s))
	if out < 1 {
		out = 1
	}
	if out <= n {
		d1 = int(math.Cbrt(out))
		d2 = int(n / math.Pow(out, 2.0/3.0))
	} else {
		d := int(math.Cbrt(2 * n * n / (n + out)))
		d1, d2 = d, d
	}
	return clampThreshold(d1, int(n)), clampThreshold(d2, int(n))
}

func clampThreshold(d, n int) int {
	if d < 1 {
		return 1
	}
	if n >= 1 && d > n {
		return n
	}
	return d
}

// HeuristicStarThresholds extends the closed forms to Q★k following the
// Section-3.2 analysis: balance N·Δ1^{k-1} (the light-y join), |OUT|·Δ2
// (the light-x join) and the matrix term. We solve the first equality with
// the Section-5 estimate applied to the two largest relations and clamp as
// above; the optimizer can override.
func HeuristicStarThresholds(rels []*relation.Relation, k int) (d1, d2 int) {
	if len(rels) < 2 {
		return 1, 1
	}
	n := 0
	for _, r := range rels {
		if r.Size() > n {
			n = r.Size()
		}
	}
	if n == 0 {
		return 1, 1
	}
	out := float64(EstimateOutputSize(rels[0], rels[1]))
	if out < 1 {
		out = 1
	}
	nf := float64(n)
	// N·Δ1^{k-1} = OUT·Δ2 with the Example-4 style relation Δ1^{k-1} ≈
	// OUT/N · Δ2; take Δ2 from the 2-path closed form and derive Δ1.
	_, d2 = HeuristicThresholds(rels[0], rels[1])
	d1f := math.Pow(out*float64(d2)/nf, 1.0/float64(k-1))
	d1 = clampThreshold(int(d1f), n)
	d2 = clampThreshold(d2, n)
	return d1, d2
}
