// Pathquery: acyclic join-project queries beyond the star (the paper's
// Section-9 future work) written as query text. The engine GYO-decomposes
// each query, semijoin-reduces it and folds the chain with output-sensitive
// 2-path join-projects, so no intermediate ever exceeds its own projected
// size.
//
// The instance is a tiny supply chain: suppliers → parts → assemblies →
// products. The query asks which suppliers feed which final products
// (π over the chain's endpoints), plus boolean reachability probes and a
// snowflake of two arms meeting at a shared part.
//
// Run with: go run ./examples/pathquery
package main

import (
	"fmt"
	"log"
	"math/rand"
	"time"

	joinmm "repro"
)

func randomLayer(rng *rand.Rand, name string, n, from, to int) *joinmm.Relation {
	ps := make([]joinmm.Pair, n)
	for i := range ps {
		ps[i] = joinmm.Pair{X: int32(rng.Intn(from)), Y: int32(rng.Intn(to))}
	}
	return joinmm.NewRelation(name, ps)
}

func main() {
	rng := rand.New(rand.NewSource(7))
	supplies := randomLayer(rng, "supplies", 6000, 4000, 3000) // supplier → part
	usedIn := randomLayer(rng, "usedIn", 5000, 3000, 2000)     // part → assembly
	builds := randomLayer(rng, "builds", 3000, 2000, 800)      // assembly → product

	eng := joinmm.New()
	for _, r := range []*joinmm.Relation{supplies, usedIn, builds} {
		if err := eng.RegisterRelation(r); err != nil {
			log.Fatal(err)
		}
	}
	query := func(src string) *joinmm.QueryResult {
		res, err := eng.Query(src)
		if err != nil {
			log.Fatal(err)
		}
		return res
	}
	fmt.Printf("chain: %d + %d + %d tuples\n", supplies.Size(), usedIn.Size(), builds.Size())

	const chain = "Q(s, p) :- supplies(s, part), usedIn(part, a), builds(a, p)"
	start := time.Now()
	pairs := query(chain).Tuples
	fmt.Printf("%d supplier→product pairs in %v\n", len(pairs), time.Since(start).Round(time.Millisecond))

	// Boolean reachability without enumerating the output: both endpoints
	// are constants, so semijoin reduction starts from them. Probe 50 pairs
	// known to be connected and 50 perturbed ones.
	hits := 0
	start = time.Now()
	for i := 0; i < 100 && i/2 < len(pairs); i++ {
		p := pairs[i/2]
		target := p[1]
		if i%2 == 1 {
			target = (target + 13) % 800 // likely-miss probe
		}
		probe := fmt.Sprintf("Q() :- supplies(%d, part), usedIn(part, a), builds(a, %d)", p[0], target)
		if len(query(probe).Tuples) > 0 {
			hits++
		}
	}
	fmt.Printf("reachability probes: %d/100 connected in %v\n",
		hits, time.Since(start).Round(time.Millisecond))

	// Snowflake: two arms meeting at a shared part.
	snow := query("Q(s, a) :- supplies(s, part), usedIn(part, a)")
	fmt.Printf("snowflake (supplier, assembly) pairs sharing a part: %d\n", len(snow.Tuples))

	plan, err := eng.ExplainQuery(chain)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nEXPLAIN %s\n%s", chain, plan)
}
