package query

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"testing"

	"repro/internal/relation"
)

// reduceShapes pin the reducer's cases the random generators reach only by
// chance; "?" is replaced by a random constant. The triangle and 4-cycle
// rewrite to binary bag edges and re-enter reduce.
var reduceShapes = []string{
	"Q(z) :- R(?, y), S(y, z)",
	"Q(w) :- R(?, y), S(y, z), T(z, w)",
	"Q(COUNT(z)) :- R(?, y), S(y, z)",
	"Q(y) :- R(?, y), S(y, z), T(z, ?)",
	"Q(x, z) :- R(x, y), S(y, z), T(x, y)",
	"Q(x, z) :- R(x, y), S(y, y), T(y, z)",
	"Q(x, z) :- U(?, x), R(x, y), S(y, z), T(x, z)",
	"Q(x, z) :- R(x, y), S(y, z), T(x, w), U(w, z)",
	"Q(a, b) :- R(a, b), S(c, d)",
}

// fullJoin returns every satisfying assignment of q's variables (columns in
// first-appearance order) by the nested-loop oracle, and the column of each
// variable name.
func fullJoin(q *Query, rels map[string]*relation.Relation) ([][]int64, map[string]int, bool) {
	all := *q
	all.Head = nil
	col := map[string]int{}
	for _, a := range q.Atoms {
		for _, term := range a.Args {
			if _, ok := col[term.Var]; !term.IsConst && !ok {
				col[term.Var] = len(all.Head)
				all.Head = append(all.Head, HeadTerm{Var: term.Var})
			}
		}
	}
	rows, ok := oracleEval(&all, rels)
	return rows, col, ok
}

// TestReduceMatchesFullJoin checks the semijoin reducer against the
// nested-loop full join: Empty() agrees with the join being empty, every
// domain is the join's projection on its variable, every reduced edge is the
// projection on its two variables, an edge with nothing dangling keeps its
// source relation, and reducing a reduced component changes nothing.
func TestReduceMatchesFullJoin(t *testing.T) {
	rng := rand.New(rand.NewSource(20261015))
	compared, rewritten := 0, 0
	for iter := 0; iter < 600; iter++ {
		rels := smallRelations(rng)
		var src string
		switch {
		case iter < 3*len(reduceShapes):
			src = reduceShapes[iter%len(reduceShapes)]
			for strings.Contains(src, "?") {
				src = strings.Replace(src, "?", fmt.Sprint(rng.Intn(9)), 1)
			}
		case iter%2 == 0:
			src = randomAcyclicQuery(rng).String()
		default:
			src = randomCyclicQuery(rng).String()
		}
		q, err := Parse(src)
		if err != nil {
			t.Fatalf("Parse(%q): %v", src, err)
		}
		rows, col, ok := fullJoin(q, rels)
		if !ok {
			continue
		}
		p, err := CompileContext(context.Background(), q, MapResolver(rels))
		if err != nil {
			t.Fatalf("CompileContext(%q): %v", src, err)
		}
		compared++
		if empty, why := p.Empty(); empty != (len(rows) == 0) {
			t.Fatalf("%q: Empty() = %v (%s); full join has %d rows", src, empty, why, len(rows))
		}
		if len(rows) == 0 {
			continue
		}
		for _, c := range p.comps {
			if c.bags != nil {
				continue
			}
			if c.ghd != "" {
				rewritten++
			}
			for _, v := range c.vars {
				if want := projection(rows, col[p.vars[v]]); !slices.Equal(c.allowed[v], want) {
					t.Fatalf("%q: domain of %s = %v; full join projects %v", src, p.vars[v], c.allowed[v], want)
				}
			}
			before := make([]*relation.Relation, len(c.edges))
			for i, e := range c.edges {
				before[i] = e.rel
				ca, cb := col[p.vars[e.a]], col[p.vars[e.b]]
				want := map[relation.Pair]bool{}
				for _, r := range rows {
					want[relation.Pair{X: int32(r[ca]), Y: int32(r[cb])}] = true
				}
				got := e.rel.Pairs()
				if len(got) != len(want) {
					t.Fatalf("%q: edge %s has %d tuples; full join projects %d", src, e.label, len(got), len(want))
				}
				for _, pr := range got {
					if !want[pr] {
						t.Fatalf("%q: edge %s keeps dangling tuple %v", src, e.label, pr)
					}
				}
				if orig, single := rels[strings.TrimSuffix(e.rel.Name(), "_swap")]; single && !e.bag && !strings.Contains(e.label, "∩") {
					shared := e.rel == orig || e.rel.ByX() == orig.ByY()
					if shared != (len(want) == orig.Size()) {
						t.Fatalf("%q: edge %s keeps its source relation = %v with %d of %d tuples", src, e.label, shared, len(want), orig.Size())
					}
				}
			}
			if len(c.edges) == 0 {
				continue // a lone variable's domain is its unary set alone
			}
			c.allowed = map[int][]int32{}
			if why, ok := p.reduce(c, nil, nil); !ok {
				t.Fatalf("%q: re-reducing a reduced component failed: %s", src, why)
			}
			for i, e := range c.edges {
				if e.rel != before[i] {
					t.Fatalf("%q: re-reducing rebuilt edge %s", src, e.label)
				}
			}
		}
	}
	if compared < 400 || rewritten == 0 {
		t.Fatalf("compared %d compiles (%d binary-rewritten components); want ≥ 400 and some", compared, rewritten)
	}
	t.Logf("compared %d compiles against the full join, %d binary-rewritten components", compared, rewritten)
}

// projection returns the sorted distinct values of column c.
func projection(rows [][]int64, c int) []int32 {
	var out []int32
	for _, r := range rows {
		out = append(out, int32(r[c]))
	}
	slices.Sort(out)
	return slices.Compact(out)
}

// sparseGraph draws a road-network-like graph: each vertex has one to three
// edges to vertices a few ids ahead.
func sparseGraph(rng *rand.Rand, name string, nodes int) *relation.Relation {
	var ps []relation.Pair
	for i := 0; i < nodes; i++ {
		for d := 1 + rng.Intn(3); d > 0; d-- {
			ps = append(ps, relation.Pair{X: int32(i), Y: int32((i + 1 + rng.Intn(8)) % nodes)})
		}
	}
	return relation.FromPairs(name, ps)
}

// TestCompileCostFollowsConstant pins the reducer's output sensitivity: a
// lookup pinned by one constant allocates about the same per compile whether
// the graphs have 24 000 or 240 000 vertices. A reducer that scans whole
// relations allocates ≈ 10× more on the larger graphs.
func TestCompileCostFollowsConstant(t *testing.T) {
	perCompile := func(nodes int) float64 {
		rng := rand.New(rand.NewSource(int64(nodes)))
		resolve := MapResolver(map[string]*relation.Relation{
			"G": sparseGraph(rng, "G", nodes),
			"H": sparseGraph(rng, "H", nodes),
		})
		const compiles = 64
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		for i := 0; i < compiles; i++ {
			src := fmt.Sprintf("Q(w) :- G(%d, y), H(y, z), G(z, w)", rng.Intn(nodes))
			if _, err := Prepare(src, resolve); err != nil {
				t.Fatalf("Prepare(%q): %v", src, err)
			}
		}
		runtime.ReadMemStats(&m1)
		return float64(m1.TotalAlloc-m0.TotalAlloc) / compiles
	}
	small, large := perCompile(24000), perCompile(240000)
	t.Logf("bytes allocated per compile: %.0f at 24 000 vertices, %.0f at 240 000", small, large)
	if large > 2*small {
		t.Fatalf("compile allocation grew %.1f× with a 10× larger graph; want ≤ 2×", large/small)
	}
}

// Empty reports whether compilation proved the result empty, with the reason.
func (p *Prepared) Empty() (bool, string) { return p.empty, p.emptyWhy }
