package main

import (
	"math"
	"math/rand"
	"sort"

	"repro/internal/dataset"
	"repro/internal/relation"
)

// sizes fixes how much data each workload gets. full is what the benchmark
// measures (README.md says how the numbers were chosen); the smoke test
// runs a shrunken copy.
type sizes struct {
	// dense_rows / dense_count: Jokes/Image-like set families D, E, F.
	denseSets, denseDomain   int
	denseMinSet, denseMaxSet int
	denseSkew                float64 // Zipf exponent of element popularity
	starSets                 int     // sets per relation kept for the 3-relation star
	chainElems               int     // most popular elements of F kept for the chain's last hop

	// sparse_lookup / cold_compile: RoadNet/DBLP-like graphs G, H.
	sparseNodes int
	hitPool     int // constants that fit the plan cache
	coldPool    int // constants that overflow it
	coldVerify  int // cold texts fully compared with the oracle

	// view_writes / restart_replay: community graphs R, S, T.
	communityTuples int
	batch           int // tuples per mutation
	outstanding     int // insert batches alive before their delete arrives
	checkpointEvery int
	walTail         int // mutation records left after the restart checkpoint
}

var full = sizes{
	denseSets: 125, denseDomain: 900, denseMinSet: 40, denseMaxSet: 180,
	denseSkew: 1.2, starSets: 16, chainElems: 130,
	sparseNodes: 24000, hitPool: 16, coldPool: 8192, coldVerify: 13,
	communityTuples: 600, batch: 32, outstanding: 3, checkpointEvery: 256, walTail: 24,
}

// zipfSets draws a family of sets over [0, domain): set sizes spread evenly
// over [minSize, maxSize], element popularity Zipf with exponent skew. It is
// the Table-2 generator of internal/dataset with the seed as an argument.
// Set s has the same size under every seed — only its elements are drawn —
// and sizes are dealt out in golden-ratio steps, so every prefix of the
// family is a fair sample of them: tuple counts, and with them the cost of
// an operation, move little from seed to seed. Pairs come out sorted, so one
// seed gives identical inputs.
func zipfSets(rng *rand.Rand, sets, domain, minSize, maxSize int, skew float64) []relation.Pair {
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
		for i := range seen {
			seen[i] = false
		}
		// The Zipf head saturates quickly; top up uniformly so every set
		// reaches its size.
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

// sparseGraph draws a road-network-like graph on nodes vertices: each vertex
// gets one to three edges to vertices a few ids ahead, so degrees stay tiny
// (the planner must answer with wcoj) while short paths, triangles and
// 4-cycles all exist.
func sparseGraph(rng *rand.Rand, nodes int) []relation.Pair {
	set := make(map[relation.Pair]struct{}, 2*nodes)
	for i := 0; i < nodes; i++ {
		for d := 1 + rng.Intn(3); d > 0; d-- {
			j := (i + 1 + rng.Intn(8)) % nodes
			set[relation.Pair{X: int32(i), Y: int32(j)}] = struct{}{}
		}
	}
	return sortedPairs(set)
}

func sortedPairs(set map[relation.Pair]struct{}) []relation.Pair {
	ps := make([]relation.Pair, 0, len(set))
	for p := range set {
		ps = append(ps, p)
	}
	sort.Slice(ps, func(i, j int) bool {
		if ps[i].X != ps[j].X {
			return ps[i].X < ps[j].X
		}
		return ps[i].Y < ps[j].Y
	})
	return ps
}

// restrict keeps the tuples with x < sets and y < elems. Sets are drawn
// independently, so the first few are a sample of them — the paper samples
// its relations for star queries, whose output grows with the cube of the
// set count — and element ids are Zipf ranks, so the first few elements are
// the popular ones.
func restrict(ps []relation.Pair, sets, elems int) []relation.Pair {
	var out []relation.Pair
	for _, p := range ps {
		if int(p.X) < sets && int(p.Y) < elems {
			out = append(out, p)
		}
	}
	return out
}

// communityPairs is the Example-1 social graph of internal/dataset.
func communityPairs(n int, seed int64) []relation.Pair {
	return dataset.Community(n, 0, seed).Pairs()
}

// absentPairs lists, in a seeded order, tuples over the relation's own
// vertex range that the relation does not hold: the pool the mutation
// schedule inserts from. Staying inside the range keeps every inserted tuple
// joining with its community, so view maintenance has real work to do.
func absentPairs(rng *rand.Rand, base []relation.Pair) []relation.Pair {
	have := make(map[relation.Pair]struct{}, len(base))
	var hi int32
	for _, p := range base {
		have[p] = struct{}{}
		hi = max(hi, p.X, p.Y)
	}
	// Community members are numbered consecutively, ⌊√N⌋ to a community.
	per := max(int32(math.Sqrt(float64(len(base)))), 2)
	var out []relation.Pair
	for x := int32(0); x <= hi; x++ {
		lo := x / per * per
		for y := lo; y < lo+per && y <= hi; y++ {
			p := relation.Pair{X: x, Y: y}
			if _, ok := have[p]; !ok && x != y {
				out = append(out, p)
			}
		}
	}
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}
