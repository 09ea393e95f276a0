package joinproject

import (
	"math/rand"
	"testing"

	"repro/internal/relation"
)

// zipfSetFamily draws sets sets over [0, domain), set sizes dealt evenly over
// [minSize, maxSize] in golden-ratio steps, element popularity Zipf with
// exponent skew topped up uniformly once the head saturates: the set-family
// shape of the dense benchmark workloads.
func zipfSetFamily(rng *rand.Rand, sets, domain, minSize, maxSize int, skew float64) []relation.Pair {
	zipf := rand.NewZipf(rng, skew, 1, uint64(domain-1))
	ps := make([]relation.Pair, 0, sets*(minSize+maxSize)/2)
	seen := make([]bool, domain)
	step := int(0.618 * float64(sets))
	for gcd(step, sets) != 1 {
		step++
	}
	for s := 0; s < sets; s++ {
		rank := s * step % sets
		size := minSize + rank*(maxSize-minSize+1)/sets
		clear(seen)
		for n, tries := 0, 0; n < size; tries++ {
			e := int(zipf.Uint64())
			if tries > 6*size {
				e = rng.Intn(domain)
			}
			if !seen[e] {
				seen[e] = true
				n++
			}
		}
		for e, ok := range seen {
			if ok {
				ps = append(ps, relation.Pair{X: int32(s), Y: int32(e)})
			}
		}
	}
	return ps
}

func gcd(a, b int) int {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// BenchmarkTwoPathGroups times the set-semantics two-path kernel on the
// dense self-join Q(x, z) :- D(x, y), D(z, y) over a Zipf(1.2) family of 125
// sets of 40–180 elements drawn from 900, all values light (the plan the
// dense queries run), where the dense rows are built as bitmaps.
func BenchmarkTwoPathGroups(b *testing.B) {
	d := relation.FromPairs("D", zipfSetFamily(rand.New(rand.NewSource(1)), 125, 900, 40, 180, 1.2))
	opt := Options{Workers: 1}.AllLight(d, d)
	var pairs int
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		pairs = len(TwoPathGroups(d, d, opt, true).ZPos)
	}
	b.ReportMetric(float64(pairs), "pairs/op")
}

// BenchmarkStar times the star kernel on Q(a, b, c) :- Ds(a, y), Es(b, y),
// Fs(c, y), each arm the first 16 sets of a Zipf(1.2) family of 125 sets of
// 40–180 elements drawn from 900 — the dense star, whose 16³-tuple head
// domain is a bitmap tuple set — at Δ = (1, 128), the planner's choice for
// it, and all-light.
func BenchmarkStar(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	arms := make([]*relation.Relation, 3)
	allLight := 0
	for j, name := range []string{"Ds", "Es", "Fs"} {
		var ps []relation.Pair
		for _, p := range zipfSetFamily(rng, 125, 900, 40, 180, 1.2) {
			if p.X < 16 {
				ps = append(ps, p)
			}
		}
		arms[j] = relation.FromPairs(name, ps)
		allLight = max(allLight, len(ps)+1)
	}
	for _, bc := range []struct {
		name   string
		d1, d2 int
	}{{"delta=1,128", 1, 128}, {"all-light", allLight, allLight}} {
		b.Run(bc.name, func(b *testing.B) {
			opt := Options{Delta1: bc.d1, Delta2: bc.d2, Workers: 1}
			var rows int
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				rows = len(StarMM(arms, opt))
			}
			b.ReportMetric(float64(rows), "rows/op")
		})
	}
}
