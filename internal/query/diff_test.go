package query

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"repro/internal/optimizer"
	"repro/internal/relation"
)

// oracleEval answers a query by brute force: backtracking over the atoms,
// binding variables from the relation tuples, then projecting/aggregating
// the satisfying assignments — an independent nested-loop implementation of
// the language semantics. Returns ok=false when the enumeration exceeds the
// step budget (the caller skips such instances).
func oracleEval(q *Query, rels map[string]*relation.Relation) ([][]int64, bool) {
	const maxSteps = 4 << 20
	steps := 0
	assign := map[string]int32{}
	type row = []int64

	// Distinct projected assignments (head terms by position, with COUNT(v)
	// projected as v's value for now).
	seen := map[string][]int64{}
	record := func() {
		t := make(row, len(q.Head))
		key := ""
		for i, h := range q.Head {
			t[i] = int64(assign[h.Var])
			key += fmt.Sprintf("%d,", t[i])
		}
		seen[key] = t
	}

	var solve func(i int) bool
	solve = func(i int) bool {
		steps++
		if steps > maxSteps {
			return false
		}
		if i == len(q.Atoms) {
			record()
			return true
		}
		a := q.Atoms[i]
		r := rels[a.Rel]
		for _, pr := range r.Pairs() {
			vals := [2]int32{pr.X, pr.Y}
			var boundHere []string
			ok := true
			for k, term := range a.Args {
				switch {
				case term.IsConst:
					ok = term.Value == vals[k]
				default:
					if v, bound := assign[term.Var]; bound {
						ok = v == vals[k]
					} else {
						assign[term.Var] = vals[k]
						boundHere = append(boundHere, term.Var)
					}
				}
				if !ok {
					break
				}
			}
			if ok && !solve(i+1) {
				return false
			}
			for _, v := range boundHere {
				delete(assign, v)
			}
		}
		return true
	}
	if !solve(0) {
		return nil, false
	}

	ci := q.CountIndex()
	if ci < 0 {
		out := make([][]int64, 0, len(seen))
		for _, t := range seen {
			out = append(out, t)
		}
		return out, true
	}
	// COUNT(v): distinct v per group of the remaining head positions.
	groups := map[string][]int64{}
	counts := map[string]map[int64]bool{}
	for _, t := range seen {
		key := ""
		g := make([]int64, 0, len(t)-1)
		for i, v := range t {
			if i == ci {
				continue
			}
			key += fmt.Sprintf("%d,", v)
			g = append(g, v)
		}
		groups[key] = g
		if counts[key] == nil {
			counts[key] = map[int64]bool{}
		}
		counts[key][t[ci]] = true
	}
	if len(q.Head) == 1 {
		// Global count: always a single row, zero when unsatisfiable.
		n := int64(0)
		if m, ok := counts[""]; ok {
			n = int64(len(m))
		}
		return [][]int64{{n}}, true
	}
	var out [][]int64
	for key, g := range groups {
		t := make([]int64, len(q.Head))
		gi := 0
		for i := range q.Head {
			if i == ci {
				t[i] = int64(len(counts[key]))
			} else {
				t[i] = g[gi]
				gi++
			}
		}
		out = append(out, t)
	}
	return out, true
}

// randomRelations builds a fresh random catalog.
func randomRelations(rng *rand.Rand) map[string]*relation.Relation {
	rels := map[string]*relation.Relation{}
	for _, name := range []string{"R", "S", "T", "U"} {
		n := rng.Intn(36)
		ps := make([]relation.Pair, n)
		for i := range ps {
			ps[i] = relation.Pair{X: int32(rng.Intn(13)), Y: int32(rng.Intn(13))}
		}
		rels[name] = relation.FromPairs(name, ps)
	}
	return rels
}

// randomAcyclicQuery generates a random acyclic query of 2–5 atoms: tree
// growth plus parallel atoms, constants, self-loops and occasional
// disconnected components, with a random head and random hints.
func randomAcyclicQuery(rng *rand.Rand) *Query {
	relNames := []string{"R", "S", "T", "U"}
	pick := func(ss []string) string { return ss[rng.Intn(len(ss))] }
	q := &Query{Name: "Q"}
	vars := []string{"v0"}
	newVar := func() string {
		v := fmt.Sprintf("v%d", len(vars))
		vars = append(vars, v)
		return v
	}
	type varPair struct{ u, w string }
	var treeEdges []varPair
	addEdge := func(u, w string) {
		if rng.Intn(2) == 0 {
			u, w = w, u
		}
		q.Atoms = append(q.Atoms, Atom{Rel: pick(relNames), Args: [2]Term{{Var: u}, {Var: w}}})
	}

	nAtoms := 2 + rng.Intn(4)
	for i := 0; i < nAtoms; i++ {
		r := rng.Float64()
		switch {
		case i == 0 || r < 0.55:
			u := pick(vars)
			w := newVar()
			treeEdges = append(treeEdges, varPair{u, w})
			addEdge(u, w)
		case r < 0.65 && len(treeEdges) > 0:
			// Parallel atom over an existing variable pair (merged by GYO).
			e := treeEdges[rng.Intn(len(treeEdges))]
			addEdge(e.u, e.w)
		case r < 0.75:
			// A fresh disconnected component (cross product / existence).
			u := newVar()
			w := newVar()
			treeEdges = append(treeEdges, varPair{u, w})
			addEdge(u, w)
		case r < 0.9:
			// Constant selection on an existing variable.
			u := pick(vars)
			c := Term{Value: int32(rng.Intn(13)), IsConst: true}
			args := [2]Term{{Var: u}, c}
			if rng.Intn(2) == 0 {
				args[0], args[1] = args[1], args[0]
			}
			q.Atoms = append(q.Atoms, Atom{Rel: pick(relNames), Args: args})
		default:
			u := pick(vars)
			q.Atoms = append(q.Atoms, Atom{Rel: pick(relNames), Args: [2]Term{{Var: u}, {Var: u}}})
		}
	}

	// Head: up to 3 distinct variables, sometimes a COUNT aggregate.
	perm := rng.Perm(len(vars))
	k := rng.Intn(4)
	if k > len(vars) {
		k = len(vars)
	}
	for _, vi := range perm[:k] {
		q.Head = append(q.Head, HeadTerm{Var: vars[vi]})
	}
	if rng.Float64() < 0.25 {
		h := HeadTerm{Var: pick(vars), Count: true}
		pos := 0
		if len(q.Head) > 0 {
			pos = rng.Intn(len(q.Head) + 1)
		}
		q.Head = append(q.Head[:pos], append([]HeadTerm{h}, q.Head[pos:]...)...)
	}

	// Hints: exercise every strategy path.
	if r := rng.Float64(); r < 0.4 {
		q.Hints.Strategy = []string{"auto", "mm", "wcoj", "nonmm"}[rng.Intn(4)]
	}
	if rng.Float64() < 0.25 {
		q.Hints.Workers = 1 + rng.Intn(3)
	}
	return q
}

func canonTuples(ts [][]int64) [][]int64 {
	sort.Slice(ts, func(i, j int) bool {
		a, b := ts[i], ts[j]
		for k := range a {
			if a[k] != b[k] {
				return a[k] < b[k]
			}
		}
		return false
	})
	return ts
}

// cyclicShapes is the fixed cyclic-query corpus of the differential suite:
// triangles, longer cycles, chords, bowties, thetas, cliques and mixes with
// trees, constants, self-loops, aggregates and hints — ≥ 20 shapes covering
// both the binary GHD rewrite and the k-ary bag-tree fallback.
var cyclicShapes = []string{
	"Q(x, z) :- R(x, y), S(y, z), T(z, x)",                                      // triangle, endpoints
	"Q(x) :- R(x, y), S(y, z), T(z, x)",                                         // triangle, one head
	"Q() :- R(x, y), S(y, z), T(z, x)",                                          // boolean triangle
	"Q(x, y, z) :- R(x, y), S(y, z), T(z, x)",                                   // triangle, full head (k-ary bag)
	"Q(x, COUNT(z)) :- R(x, y), S(y, z), T(z, x)",                               // counting triangle
	"Q(z, x) :- R(x, y), S(y, z), T(x, z)",                                      // triangle, mixed orientation
	"Q(a, c) :- R(a, b), S(b, c), T(c, d), U(d, a)",                             // 4-cycle
	"Q(a) :- R(a, b), S(b, c), T(c, d), U(d, a)",                                // 4-cycle, one head
	"Q(a, b, c, d) :- R(a, b), S(b, c), T(c, d), U(d, a)",                       // 4-cycle, full head
	"Q(a, c) :- R(a, b), S(b, c), T(c, d), U(d, a), R(a, c)",                    // diamond (4-cycle + chord)
	"Q(a, c) :- R(a, b), S(b, c), T(c, d), U(d, e), R(e, a)",                    // 5-cycle
	"Q(a, d) :- R(a, b), S(b, c), T(c, d), U(d, e), R(e, f), S(f, a)",           // 6-cycle
	"Q(x, u) :- R(x, y), S(y, z), T(z, x), U(z, u), R(u, v), S(v, z)",           // bowtie, outer heads
	"Q(z) :- R(x, y), S(y, z), T(z, x), U(z, u), R(u, v), S(v, z)",              // bowtie, shared vertex
	"Q(a, b) :- R(a, x), S(x, b), T(a, y), U(y, b), R(a, z), S(z, b)",           // theta: three 2-paths a→b
	"Q(a, b, c, d) :- R(a, b), S(a, c), T(a, d), U(b, c), R(b, d), S(c, d)",     // K4, full head
	"Q(a, b) :- R(a, b), S(a, c), T(a, d), U(b, c), R(b, d), S(c, d)",           // K4, two heads
	"Q(h) :- R(h, a), S(h, b), T(h, c), U(a, b), R(b, c)",                       // hub + rim (wheel fragment)
	"Q(x, z) :- R(x, y), S(y, z), T(z, x), U(z, w)",                             // triangle + pendant tree edge
	"Q(x, w) :- R(x, y), S(y, z), T(z, x), U(z, w)",                             // triangle + pendant, head on tail
	"Q(x, z) :- R(x, y), S(y, z), T(z, x), R(x, 3)",                             // triangle + constant selection
	"Q(x, z) :- R(x, y), S(y, z), T(z, x), S(y, y)",                             // triangle + self-loop on cycle var
	"Q(x, z) :- R(x, y), S(y, z), T(z, x), U(x, z)",                             // triangle + parallel closing atom
	"Q(x, a) :- R(x, y), S(y, z), T(z, x), U(a, b)",                             // cyclic × acyclic cross product
	"Q(x, COUNT(a)) :- R(x, y), S(y, z), T(z, x), U(x, a)",                      // aggregate over cyclic + arm
	"Q(x, y, COUNT(z)) :- R(x, y), S(y, z), T(z, x)",                            // COUNT grouped after a k-ary bag (no pushdown)
	"Q(a, COUNT(c), b) :- R(a, b), S(b, c), T(c, d), U(d, a)",                   // COUNT grouped after a two-bag k-ary join
	"Q(x, COUNT(a)) :- R(x, y), S(y, z), T(z, x), U(a, b)",                      // COUNT split across components: cross, then group
	"Q(x, z) :- R(x, y), S(y, z), T(z, x) WITH strategy=wcoj",                   // strategy pin through bags
	"Q(a, c) :- R(a, b), S(b, c), T(c, d), U(d, a) WITH strategy=mm, workers=2", // pinned MM folds
}

// acyclicShapes is the fixed acyclic corpus: the chains, snowflakes and
// constant-bound reachability probes that query text is the only way to
// evaluate.
var acyclicShapes = []string{
	"Q(a, b) :- R(a, b)",                            // one-atom path
	"Q(a, c) :- R(a, b), R(b, c)",                   // 2-hop over one relation twice
	"Q(a, e) :- R(a, b), S(b, c), T(c, d), U(d, e)", // 4-chain
	"Q(a, f) :- R(a, b), S(b, c), T(c, d), U(d, e), R(e, f) WITH strategy=nonmm, workers=2", // pinned 5-chain
	"Q(l1, l2, l3) :- R(c, l1), S(c, u), T(u, l2), U(c, v), R(v, l3)",                       // snowflake, arms 1/2/2
	"Q(l1, l2, l3) :- R(c, l1), S(c, u), T(u, l2), U(c, v), R(v, l3) WITH strategy=wcoj",
	"Q(b) :- R(a, b)",                  // one-armed snowflake: distinct leaves
	"Q() :- R(1, b), S(b, c), T(c, 4)", // boolean reachability 1 → 4
	"Q() :- R(1, b), S(b, c), T(c, 4) WITH strategy=mm",
	"Q() :- R(2, 5)",                     // ground atom
	"Q(x, COUNT(z)) :- R(x, y), R(z, y)", // distinct partners per x (counting self 2-path)
}

// smallRelations builds a catalog small enough for the nested-loop oracle to
// finish the dense cyclic shapes (K4, theta) within its step budget.
func smallRelations(rng *rand.Rand) map[string]*relation.Relation {
	rels := map[string]*relation.Relation{}
	for _, name := range []string{"R", "S", "T", "U"} {
		n := 4 + rng.Intn(20)
		ps := make([]relation.Pair, n)
		for i := range ps {
			ps[i] = relation.Pair{X: int32(rng.Intn(9)), Y: int32(rng.Intn(9))}
		}
		rels[name] = relation.FromPairs(name, ps)
	}
	return rels
}

// TestDifferentialCyclicShapes runs every cyclic shape against several
// random catalogs and compares engine results with the nested-loop oracle.
func TestDifferentialCyclicShapes(t *testing.T) { diffFixedShapes(t, cyclicShapes) }

// TestDifferentialAcyclicShapes does the same for the acyclic corpus.
func TestDifferentialAcyclicShapes(t *testing.T) { diffFixedShapes(t, acyclicShapes) }

// diffFixedShapes runs each shape against six random catalogs, alternating
// planned and planner-less execution, and fails for a shape the oracle's
// step budget never let it compare.
func diffFixedShapes(t *testing.T, shapes []string) {
	t.Helper()
	rng := rand.New(rand.NewSource(20260731))
	opt := optimizer.New()
	comparedBy := make([]int, len(shapes))
	for round := 0; round < 6; round++ {
		rels := smallRelations(rng)
		for si, src := range shapes {
			q, err := Parse(src)
			if err != nil {
				t.Fatalf("Parse(%q): %v", src, err)
			}
			want, ok := oracleEval(q, rels)
			if !ok {
				continue
			}
			p, err := Prepare(src, MapResolver(rels))
			if err != nil {
				t.Fatalf("round %d: Prepare(%q): %v", round, src, err)
			}
			execOpt := ExecOptions{Workers: 1}
			if si%2 == 0 {
				execOpt.Optimizer = opt
			}
			res, err := p.Execute(context.Background(), execOpt)
			if err != nil {
				t.Fatalf("round %d: Execute(%q): %v", round, src, err)
			}
			got, wantC := canonTuples(res.Tuples), canonTuples(want)
			if len(got) != 0 || len(wantC) != 0 {
				if !reflect.DeepEqual(got, wantC) {
					t.Fatalf("round %d: %q\nengine: %v\noracle: %v\nplan:\n%s", round, src, got, wantC, res.Plan)
				}
			}
			comparedBy[si]++
		}
	}
	for si, n := range comparedBy {
		if n == 0 {
			t.Errorf("shape %q never compared (oracle budget)", shapes[si])
		}
	}
}

// randomCyclicQuery closes a random acyclic query with 1–2 extra atoms
// between already-used variables, creating cycles of arbitrary shape.
func randomCyclicQuery(rng *rand.Rand) *Query {
	q := randomAcyclicQuery(rng)
	var vars []string
	seen := map[string]bool{}
	for _, a := range q.Atoms {
		for _, term := range a.Args {
			if !term.IsConst && !seen[term.Var] {
				seen[term.Var] = true
				vars = append(vars, term.Var)
			}
		}
	}
	if len(vars) < 2 {
		return q
	}
	relNames := []string{"R", "S", "T", "U"}
	extra := 1 + rng.Intn(2)
	for i := 0; i < extra; i++ {
		u := vars[rng.Intn(len(vars))]
		w := vars[rng.Intn(len(vars))]
		if u == w {
			continue
		}
		q.Atoms = append(q.Atoms, Atom{
			Rel:  relNames[rng.Intn(len(relNames))],
			Args: [2]Term{{Var: u}, {Var: w}},
		})
	}
	return q
}

// TestDifferentialRandomCyclic fuzzes the decomposition path with randomly
// closed queries, compared against the oracle.
func TestDifferentialRandomCyclic(t *testing.T) {
	rng := rand.New(rand.NewSource(20260801))
	opt := optimizer.New()
	rels := smallRelations(rng)
	compared := 0
	for iter := 0; iter < 120; iter++ {
		if iter%20 == 19 {
			rels = smallRelations(rng)
		}
		q := randomCyclicQuery(rng)
		src := q.String()
		want, ok := oracleEval(q, rels)
		if !ok {
			continue
		}
		p, err := Prepare(src, MapResolver(rels))
		if err != nil {
			t.Fatalf("iter %d: Prepare(%q): %v", iter, src, err)
		}
		execOpt := ExecOptions{Workers: 1 + rng.Intn(2)}
		if rng.Intn(2) == 0 {
			execOpt.Optimizer = opt
		}
		res, err := p.Execute(context.Background(), execOpt)
		if err != nil {
			t.Fatalf("iter %d: Execute(%q): %v", iter, src, err)
		}
		got, wantC := canonTuples(res.Tuples), canonTuples(want)
		if len(got) == 0 && len(wantC) == 0 {
			compared++
			continue
		}
		if !reflect.DeepEqual(got, wantC) {
			t.Fatalf("iter %d: %q\nengine: %v\noracle: %v\nplan:\n%s", iter, src, got, wantC, res.Plan)
		}
		compared++
	}
	if compared < 60 {
		t.Fatalf("only %d cyclic queries compared; want ≥ 60", compared)
	}
	t.Logf("compared %d random cyclic queries against the oracle", compared)
}

// TestDifferentialVsBruteForce evaluates ≥100 random acyclic queries through
// the full text → parse → plan → execute pipeline and compares every result
// against the nested-loop oracle.
func TestDifferentialVsBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(20260730))
	opt := optimizer.New()
	rels := randomRelations(rng)
	compared := 0
	for iter := 0; iter < 170; iter++ {
		if iter%25 == 24 {
			rels = randomRelations(rng)
		}
		q := randomAcyclicQuery(rng)
		src := q.String()

		want, ok := oracleEval(q, rels)
		if !ok {
			continue // oracle budget exceeded; rare
		}

		// Round-trip through text to exercise the parser too.
		p, err := Prepare(src, MapResolver(rels))
		if err != nil {
			t.Fatalf("iter %d: Prepare(%q): %v", iter, src, err)
		}
		execOpt := ExecOptions{Workers: 1 + rng.Intn(2)}
		if rng.Intn(2) == 0 {
			execOpt.Optimizer = opt
		}
		res, err := p.Execute(context.Background(), execOpt)
		if err != nil {
			t.Fatalf("iter %d: Execute(%q): %v", iter, src, err)
		}

		got := canonTuples(res.Tuples)
		wantC := canonTuples(want)
		if len(got) == 0 && len(wantC) == 0 {
			compared++
			continue
		}
		if !reflect.DeepEqual(got, wantC) {
			t.Fatalf("iter %d: %q\nengine: %v\noracle: %v\nplan:\n%s", iter, src, got, wantC, res.Plan)
		}
		compared++
	}
	if compared < 100 {
		t.Fatalf("only %d queries compared; want ≥ 100", compared)
	}
	t.Logf("compared %d random acyclic queries against the oracle", compared)
}
