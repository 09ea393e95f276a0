// Package dataset generates the synthetic workloads used by the benchmark
// harness.
//
// The paper evaluates on six real datasets (Table 2) ranging from 1.5M to
// 900M tuples. Those datasets are not redistributable and are far beyond
// laptop-scale for a reproduction, so this package builds seeded synthetic
// stand-ins that preserve the properties the paper's conclusions depend on:
//
//   - DBLP, RoadNet: sparse, small sets, low skew — the shapes where the
//     optimizer should fall back to a plain worst-case optimal join.
//   - Jokes, Words: dense bipartite graphs with Zipf-skewed element
//     popularity and large sets — high duplication in the join result.
//   - Protein, Image: very dense, clustered (near-clique blocks) — the
//     shapes where matrix multiplication wins by the largest factors and
//     where EmptyHeaded-style bitset engines are competitive.
//
// Every generator is deterministic in its seed, and sizes scale linearly
// with the scale parameter (scale 1.0 ≈ 10³–10⁴× smaller than the paper).
package dataset

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"repro/internal/relation"
)

// Names lists the six Table-2 dataset shapes in the paper's order.
func Names() []string {
	return []string{"RoadNet", "DBLP", "Jokes", "Words", "Protein", "Image"}
}

// ByName generates the named dataset shape at the given scale. Scale 1.0 is
// the default benchmarking size (hundreds of thousands of tuples at most).
func ByName(name string, scale float64) (*relation.Relation, error) {
	switch name {
	case "DBLP":
		return DBLP(scale), nil
	case "RoadNet":
		return RoadNet(scale), nil
	case "Jokes":
		return Jokes(scale), nil
	case "Words":
		return Words(scale), nil
	case "Protein":
		return Protein(scale), nil
	case "Image":
		return Image(scale), nil
	default:
		return nil, fmt.Errorf("dataset: unknown dataset %q", name)
	}
}

func scaled(base int, scale float64) int {
	v := int(math.Round(float64(base) * scale))
	if v < 1 {
		return 1
	}
	return v
}

// DBLP mimics the author–paper bipartite graph: many small sets (avg ≈ 6.6
// elements), a large element domain, moderate skew. Sparse: the optimizer
// should choose the plain WCOJ plan here, as the paper observes.
func DBLP(scale float64) *relation.Relation {
	return zipfBipartite(zipfParams{
		name:     "DBLP",
		numSets:  scaled(15000, scale),
		domain:   scaled(30000, scale),
		minSize:  1,
		maxSize:  scaled(60, scale),
		sizeExp:  4.0, // strongly skewed toward small sets, avg ≈ 6–8
		elemSkew: 0,   // uniform paper popularity: sparse join, like the real DBLP
		seed:     101,
	})
}

// RoadNet mimics the Pennsylvania road network: node–node edges with tiny
// degrees (avg 1.5, max 20). The sparsest shape.
func RoadNet(scale float64) *relation.Relation {
	n := scaled(12000, scale)
	rng := rand.New(rand.NewSource(202))
	ps := make([]relation.Pair, 0, n*2)
	for i := 0; i < n; i++ {
		// 1–3 edges to nearby nodes: grid-like locality, low degree.
		deg := 1 + rng.Intn(3)
		for d := 0; d < deg; d++ {
			j := i + 1 + rng.Intn(8)
			if j >= n {
				j = rng.Intn(n)
			}
			ps = append(ps, relation.Pair{X: int32(i), Y: int32(j)})
		}
	}
	return relation.FromPairs("RoadNet", ps)
}

// Jokes mimics the joke–word graph: few sets, each covering a large
// fraction (≈11%) of a modest domain, with heavy element skew. Dense.
func Jokes(scale float64) *relation.Relation {
	return zipfBipartite(zipfParams{
		name:     "Jokes",
		numSets:  scaled(700, scale),
		domain:   scaled(2500, scale),
		minSize:  scaled(65, scale),
		maxSize:  scaled(500, scale),
		sizeExp:  1.1,
		elemSkew: 1.25,
		seed:     303,
	})
}

// Words mimics the document–token graph: many sets over a compact token
// domain, so element (y) degrees are very heavy while most sets stay small.
func Words(scale float64) *relation.Relation {
	return zipfBipartite(zipfParams{
		name:     "Words",
		numSets:  scaled(4000, scale),
		domain:   scaled(1500, scale),
		minSize:  1,
		maxSize:  scaled(500, scale),
		sizeExp:  1.6,
		elemSkew: 1.15,
		seed:     404,
	})
}

// Protein mimics the protein-interaction graph: dense clustered structure
// with large minimum set sizes.
func Protein(scale float64) *relation.Relation {
	return clusteredBipartite(clusterParams{
		name:     "Protein",
		numSets:  scaled(600, scale),
		domain:   scaled(1600, scale),
		clusters: 6,
		minSize:  scaled(100, scale),
		maxSize:  scaled(700, scale),
		noise:    0.15,
		seed:     505,
	})
}

// Image mimics the image–feature graph: near-clique blocks (every set in a
// cluster shares most of the cluster's features), the densest shape and the
// one where the paper notes "the output is close to a clique".
func Image(scale float64) *relation.Relation {
	return clusteredBipartite(clusterParams{
		name:     "Image",
		numSets:  scaled(600, scale),
		domain:   scaled(2000, scale),
		clusters: 4,
		minSize:  scaled(300, scale),
		maxSize:  scaled(450, scale),
		noise:    0.05,
		seed:     606,
	})
}

type zipfParams struct {
	name             string
	numSets, domain  int
	minSize, maxSize int
	sizeExp          float64 // size ~ min + (max-min)·u^sizeExp: larger → smaller sets
	elemSkew         float64 // Zipf exponent for element popularity (> 1)
	seed             int64
}

// nestedFraction is the share of sets generated as exact subsets of an
// earlier set. Real set-valued data (keyword sets, feature sets, interaction
// sets) contains genuine containment structure — it is what the paper's SCJ
// experiments measure — while independent random draws of large sets almost
// never contain one another.
const nestedFraction = 0.15

// subsetOf draws a random nonempty proper subset of the given set.
func subsetOf(rng *rand.Rand, set []int32) []int32 {
	if len(set) <= 1 {
		return append([]int32(nil), set...)
	}
	k := 1 + rng.Intn(len(set)-1)
	perm := rng.Perm(len(set))
	out := make([]int32, 0, k)
	for _, i := range perm[:k] {
		out = append(out, set[i])
	}
	return out
}

// zipfBipartite draws each set's size from a power-law between min and max
// and fills it with Zipf-distributed elements; a fraction of sets are exact
// subsets of earlier sets (see nestedFraction).
func zipfBipartite(p zipfParams) *relation.Relation {
	rng := rand.New(rand.NewSource(p.seed))
	if p.maxSize > p.domain {
		p.maxSize = p.domain
	}
	if p.minSize < 1 {
		p.minSize = 1
	}
	if p.minSize > p.maxSize {
		p.minSize = p.maxSize
	}
	// elemSkew > 1 draws elements from a Zipf; ≤ 1 draws uniformly (the
	// near-uniform popularity of, e.g., papers in a bibliography).
	var draw func() int32
	if p.elemSkew > 1 {
		zipf := rand.NewZipf(rng, p.elemSkew, 1, uint64(p.domain-1))
		draw = func() int32 { return int32(zipf.Uint64()) }
	} else {
		draw = func() int32 { return int32(rng.Intn(p.domain)) }
	}
	ps := make([]relation.Pair, 0, p.numSets*(p.minSize+p.maxSize)/2)
	var history [][]int32
	for s := 0; s < p.numSets; s++ {
		if len(history) > 0 && rng.Float64() < nestedFraction {
			base := history[rng.Intn(len(history))]
			for _, e := range subsetOf(rng, base) {
				ps = append(ps, relation.Pair{X: int32(s), Y: e})
			}
			continue
		}
		size := p.minSize + int(float64(p.maxSize-p.minSize)*math.Pow(rng.Float64(), p.sizeExp))
		seen := make(map[int32]struct{}, size)
		attempts := 0
		for len(seen) < size && attempts < 6*size {
			seen[draw()] = struct{}{}
			attempts++
		}
		// Top up with uniform draws if the Zipf head saturated.
		for len(seen) < size {
			seen[int32(rng.Intn(p.domain))] = struct{}{}
		}
		set := make([]int32, 0, len(seen))
		for e := range seen {
			ps = append(ps, relation.Pair{X: int32(s), Y: e})
			set = append(set, e)
		}
		if len(history) < 64 {
			// Sort before storing: map iteration order is randomized, and
			// the subset draws must be deterministic in the seed.
			sort.Slice(set, func(a, b int) bool { return set[a] < set[b] })
			history = append(history, set)
		}
	}
	return relation.FromPairs(p.name, ps)
}

type clusterParams struct {
	name             string
	numSets, domain  int
	clusters         int
	minSize, maxSize int
	noise            float64 // fraction of each set drawn outside its cluster
	seed             int64
}

// clusteredBipartite assigns each set to a cluster of the element domain and
// draws most of its elements from that cluster, producing near-clique blocks
// in the join result.
func clusteredBipartite(p clusterParams) *relation.Relation {
	rng := rand.New(rand.NewSource(p.seed))
	if p.maxSize > p.domain {
		p.maxSize = p.domain
	}
	if p.minSize < 1 {
		p.minSize = 1
	}
	if p.minSize > p.maxSize {
		p.minSize = p.maxSize
	}
	clusterSize := p.domain / p.clusters
	if clusterSize < 1 {
		clusterSize = 1
	}
	ps := make([]relation.Pair, 0, p.numSets*(p.minSize+p.maxSize)/2)
	var history [][]int32
	for s := 0; s < p.numSets; s++ {
		if len(history) > 0 && rng.Float64() < nestedFraction {
			base := history[rng.Intn(len(history))]
			for _, e := range subsetOf(rng, base) {
				ps = append(ps, relation.Pair{X: int32(s), Y: e})
			}
			continue
		}
		c := rng.Intn(p.clusters)
		lo := c * clusterSize
		size := p.minSize + rng.Intn(p.maxSize-p.minSize+1)
		if size > clusterSize {
			size = clusterSize
		}
		seen := make(map[int32]struct{}, size)
		for len(seen) < size {
			var e int32
			if rng.Float64() < p.noise {
				e = int32(rng.Intn(p.domain))
			} else {
				e = int32(lo + rng.Intn(clusterSize))
			}
			seen[e] = struct{}{}
		}
		set := make([]int32, 0, len(seen))
		for e := range seen {
			ps = append(ps, relation.Pair{X: int32(s), Y: e})
			set = append(set, e)
		}
		if len(history) < 64 {
			// Sort before storing: map iteration order is randomized, and
			// the subset draws must be deterministic in the seed.
			sort.Slice(set, func(a, b int) bool { return set[a] < set[b] })
			history = append(history, set)
		}
	}
	return relation.FromPairs(p.name, ps)
}

// Community builds the Example-1 instance: a social graph with a constant
// number of communities of ≈√N users each, where most user pairs inside a
// community are connected. The full 2-path join is Θ(N^{3/2}) while the
// projected output is Θ(N).
func Community(n int, communities int, seed int64) *relation.Relation {
	if communities < 1 {
		communities = 1
	}
	rng := rand.New(rand.NewSource(seed))
	perCommunity := int(math.Sqrt(float64(n)))
	if perCommunity < 2 {
		perCommunity = 2
	}
	ps := make([]relation.Pair, 0, n)
	user := int32(0)
	for len(ps) < n {
		members := make([]int32, perCommunity)
		for i := range members {
			members[i] = user
			user++
		}
		for i := 0; i < perCommunity && len(ps) < n; i++ {
			for j := 0; j < perCommunity && len(ps) < n; j++ {
				if i != j && rng.Float64() < 0.8 {
					ps = append(ps, relation.Pair{X: members[i], Y: members[j]})
				}
			}
		}
		_ = communities // community count is implied by n/perCommunity²
	}
	return relation.FromPairs("Community", ps)
}

// Sample returns a relation keeping each tuple independently with
// probability frac — the paper samples relations for the star-query
// experiments so the join fits in memory.
func Sample(r *relation.Relation, frac float64, seed int64) *relation.Relation {
	if frac >= 1 {
		return r
	}
	rng := rand.New(rand.NewSource(seed))
	var ps []relation.Pair
	for _, p := range r.Pairs() {
		if rng.Float64() < frac {
			ps = append(ps, p)
		}
	}
	return relation.FromPairs(r.Name()+"_sample", ps)
}

// Table2 renders the Table-2 statistics for the given scale, in the paper's
// dataset order.
func Table2(scale float64) string {
	out := fmt.Sprintf("%-10s %10s %10s %10s %12s %12s %12s\n",
		"Dataset", "|R|", "Sets", "|dom|", "AvgSetSize", "MinSetSize", "MaxSetSize")
	for _, n := range Names() {
		r, _ := ByName(n, scale)
		s := r.Stats()
		out += fmt.Sprintf("%-10s %10d %10d %10d %12.1f %12d %12d\n",
			n, s.Tuples, s.NumSets, s.DomainSize, s.AvgSetSize, s.MinSetSize, s.MaxSetSize)
	}
	return out
}
