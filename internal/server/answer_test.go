package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/govern"
	"repro/internal/relation"
)

// zipfSets is a set family of the dense benchmark's kind: sets sets (x)
// over a Zipf-skewed element domain (y), sizes spread evenly between
// minSize and maxSize.
func zipfSets(seed int64, sets, domain, minSize, maxSize int) []relation.Pair {
	rng := rand.New(rand.NewSource(seed))
	zipf := rand.NewZipf(rng, 1.2, 1, uint64(domain-1))
	var ps []relation.Pair
	for s := 0; s < sets; s++ {
		seen := make([]bool, domain)
		size := minSize + (s*7%sets)*(maxSize-minSize+1)/sets
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

// restrictSets keeps the pairs of the first sets sets over the first elems
// elements.
func restrictSets(ps []relation.Pair, sets, elems int) []relation.Pair {
	var out []relation.Pair
	for _, p := range ps {
		if int(p.X) < sets && int(p.Y) < elems {
			out = append(out, p)
		}
	}
	return out
}

// registerDense loads the dense benchmark's relations — D, E, their star
// restrictions Ds, Es, Fs and the chain's last hop Fc — at the given scale
// (sets per relation).
func registerDense(tb testing.TB, eng *core.Engine, sets, domain, minSize, maxSize int) {
	tb.Helper()
	fam := map[string][]relation.Pair{}
	for i, name := range []string{"D", "E", "F"} {
		fam[name] = zipfSets(int64(41+i), sets, domain, minSize, maxSize)
	}
	rels := map[string][]relation.Pair{
		"D": fam["D"], "E": fam["E"],
		"Ds": restrictSets(fam["D"], sets/8, domain),
		"Es": restrictSets(fam["E"], sets/8, domain),
		"Fs": restrictSets(fam["F"], sets/8, domain),
		"Fc": restrictSets(fam["F"], sets, domain/7),
	}
	for _, name := range []string{"D", "E", "Ds", "Es", "Fs", "Fc"} {
		if _, err := eng.Register(name, rels[name]); err != nil {
			tb.Fatal(err)
		}
	}
}

// denseQueries are the dense benchmark's four shapes.
var denseQueries = []string{
	"Q(x, z) :- D(x, y), D(z, y)",
	"Q(x, z) :- D(x, y), E(z, y)",
	"Q(a, b, c) :- Ds(a, y), Es(b, y), Fs(c, y)",
	"Q(a, d) :- D(a, b), E(c, b), Fc(c, d)",
}

// answerQueries are one query per planner shape over R…V (the accuracy
// suite's list), then heads and bodies that reach the other final forms:
// pushed and grouped COUNTs, a bare COUNT, empty answers, and cross products
// of components whose own answers are a last fold's groups or a star's rows.
var answerQueries = []string{
	"Q(x, z) :- R(x, y), S(y, z)",
	"Q(a, d) :- R(a, b), S(b, c), T(c, d)",
	"Q(a, b, c) :- R(a, y), S(b, y), T(c, y)",
	"Q(a, d) :- R(a, b), S(b, c), T(c, d), U(c, e)",
	"Q(x, COUNT(z)) :- R(x, y), S(y, z)",
	"Q(x, z) :- R(x, y), S(y, z) WITH strategy=wcoj",
	"Q(x, z) :- R(x, y), S(y, z), T(z, x)",

	"Q(z, x) :- R(x, y), S(y, z)",
	"Q(x, z, x) :- R(x, y), S(y, z) WITH strategy=nonmm",
	"Q(x, y) :- R(x, y)",
	"Q(COUNT(z)) :- R(x, y), S(y, z)",
	"Q(a, COUNT(c)) :- R(a, y), S(b, y), T(c, y)",
	"Q(x, z) :- R(x, y), S(y, z), T(z, 999999)",
	"Q(COUNT(z)) :- R(x, y), S(y, z), T(z, 999999)",
	"Q(x, z, a, c) :- A(x, y), A(z, y), B(a, b), B(c, b)",
	"Q(a, b, c, u) :- Ds(a, y), Es(b, y), Fs(c, y), B(u, 5)",
	"Q(a, COUNT(c)) :- A(a, y), A(c, y), B(u, 5)",
	"Q(a, b, COUNT(c)) :- R(a, y), S(b, y), T(c, y)",
	"Q(x, COUNT(a)) :- A(x, y), A(z, y), B(a, b)",
}

// foldOrdered are the queries whose one component ends in a fold between
// the head's two variables, in head order.
var foldOrdered = []string{
	answerQueries[0], answerQueries[1], answerQueries[3], answerQueries[5],
	denseQueries[0], denseQueries[1], denseQueries[3],
}

// servedAnswer is an unpaged /query body with its tuples kept as bytes.
type servedAnswer struct {
	Columns []string        `json:"columns"`
	Tuples  json.RawMessage `json:"tuples"`
	Rows    int             `json:"rows"`
}

// TestUnpagedQueryServesExecuteRows is the cross-destination differential:
// for every shape, the tuples an unpaged POST /query writes — projected from
// the answer's last form as they are written — are byte for byte
// encoding/json of Execute's Tuples for the same query, order included, and
// the rows count matches. A last fold's pairs run x ascending, then z
// ascending, as the indexed relation's walk gave them; a star's rows keep
// the kernel's order, which both destinations read unchanged.
func TestUnpagedQueryServesExecuteRows(t *testing.T) {
	eng := core.NewEngine(core.WithWorkers(1)) // one worker: a star's kernel order is deterministic
	for i, name := range []string{"R", "S", "T", "U", "V"} {
		if _, err := eng.Register(name, dataset.Community(300, 12+2*i, int64(101+i)).Pairs()); err != nil {
			t.Fatal(err)
		}
	}
	registerDense(t, eng, 40, 150, 10, 40)
	rng := rand.New(rand.NewSource(5))
	for _, name := range []string{"A", "B"} {
		ps := make([]relation.Pair, 40)
		for i := range ps {
			ps[i] = relation.Pair{X: int32(rng.Intn(12)), Y: int32(rng.Intn(6))}
		}
		if _, err := eng.Register(name, ps); err != nil {
			t.Fatal(err)
		}
	}
	ts := httptest.NewServer(New(Config{Engine: eng}).Handler())
	t.Cleanup(ts.Close)

	queries := slices.Concat(answerQueries, denseQueries)
	for _, src := range denseQueries {
		// The dense benchmark's COUNT variants: the head reduced to the
		// first and last variables.
		head := strings.Split(src[2:strings.Index(src, ")")], ", ")
		queries = append(queries, fmt.Sprintf("Q(%s, COUNT(%s))%s", head[0], head[len(head)-1], src[strings.Index(src, ")")+1:]))
	}
	var empty, crossed bool
	var served int64
	for _, src := range queries {
		res, err := eng.QueryContext(context.Background(), src)
		if err != nil {
			t.Fatalf("%s: %v", src, err)
		}
		want := res.Tuples
		if want == nil {
			want = [][]int64{}
		}
		wantJSON, _ := json.Marshal(want)

		resp := postQuery(t, ts, queryRequest{Query: src})
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d: %s", src, resp.StatusCode, body)
		}
		var got servedAnswer
		if err := json.Unmarshal(body, &got); err != nil {
			t.Fatalf("%s: %v", src, err)
		}
		if !bytes.Equal(got.Tuples, wantJSON) || got.Rows != len(want) || !slices.Equal(got.Columns, res.Columns) {
			t.Fatalf("%s: served %d rows %.200s…, Execute has %d rows %.200s…", src, got.Rows, got.Tuples, len(want), wantJSON)
		}
		if res.Plan.Root.Children[0].Op == "cross" {
			crossed = crossed || len(want) > 0
		}
		empty = empty || len(want) == 0
		served += int64(len(want))
		// A last fold between the two head variables hands over its pairs
		// sorted: x ascending, then z ascending.
		if slices.Contains(foldOrdered, src) {
			if op := res.Plan.Root.Children[0].Children[0].Op; op != "fold" || len(want) == 0 {
				t.Fatalf("%s: the corpus expects a non-empty answer from a last fold, got %s with %d rows", src, op, len(want))
			}
			if !slices.IsSortedFunc(want, slices.Compare[[]int64]) {
				t.Fatalf("%s: a last fold's rows are not in (x, z) order", src)
			}
		}
		t.Logf("%s: %d rows", src, len(want))
	}
	if !empty || !crossed {
		t.Fatalf("the corpus must reach an empty answer (%v) and a non-empty cross product (%v)", empty, crossed)
	}
	// The statement sheet counts the rows of both calls per query, the
	// served ones included, though no Tuples were built for them.
	var recorded int64
	for _, st := range eng.StatementStats().Snapshot("", 0) {
		recorded += st.Rows
	}
	if recorded != 2*served {
		t.Fatalf("/stats/statements counts %d rows, want %d", recorded, 2*served)
	}
}

// TestStarRowsInHeadOrder: the dense benchmark's star, whose tuple set is a
// bitmap, is served in head order — the rows of the unpaged /query body are
// sorted and byte-identical across worker counts and across fresh engines
// (the body's timing and plan fields aside).
func TestStarRowsInHeadOrder(t *testing.T) {
	src := denseQueries[2]
	var first []byte
	for _, workers := range []int{1, 2, 4} {
		for run := 0; run < 5; run++ {
			eng := core.NewEngine(core.WithWorkers(workers))
			registerDense(t, eng, 125, 900, 40, 180)
			ts := httptest.NewServer(New(Config{Engine: eng}).Handler())
			resp := postQuery(t, ts, queryRequest{Query: src})
			body, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			ts.Close()
			var got servedAnswer
			if err := json.Unmarshal(body, &got); err != nil || resp.StatusCode != http.StatusOK {
				t.Fatalf("workers=%d run %d: status %d: %v", workers, run, resp.StatusCode, err)
			}
			if first == nil {
				var rows [][]int64
				if err := json.Unmarshal(got.Tuples, &rows); err != nil {
					t.Fatal(err)
				}
				if len(rows) < 1000 || !slices.IsSortedFunc(rows, slices.Compare[[]int64]) {
					t.Fatalf("%s: %d rows, want over 1 000 in head order", src, len(rows))
				}
				first = got.Tuples
				continue
			}
			if !bytes.Equal(got.Tuples, first) {
				t.Fatalf("workers=%d run %d: rows differ from the first run's", workers, run)
			}
		}
	}
}

// TestUnpagedQueryBudgetTripAfterLastFold: a row budget that the last fold
// fits under but the final projection does not still fails the request
// with 422 and the budget's error body; no 200 is committed first.
func TestUnpagedQueryBudgetTripAfterLastFold(t *testing.T) {
	const src = "Q(x, z) :- D(x, y), E(z, y)"
	probe := core.NewEngine()
	registerDense(t, probe, 40, 150, 10, 40)
	res, err := probe.QueryContext(context.Background(), src)
	if err != nil {
		t.Fatal(err)
	}
	n := int64(res.Len())
	// The pairs are charged at the fold, the final node, the component
	// product and the head projection: a cap between the first and the last
	// trips after the fold has run.
	for _, maxRows := range []int64{n + n/2, 3*n + n/2} {
		eng := core.NewEngine(core.WithQueryBudget(0, maxRows))
		registerDense(t, eng, 40, 150, 10, 40)
		if _, err := eng.QueryContext(context.Background(), src); !errors.Is(err, govern.ErrBudgetExceeded) {
			t.Fatalf("cap %d of %d rows: library call returned %v, want a budget error", maxRows, n, err)
		}
		ts := httptest.NewServer(New(Config{Engine: eng}).Handler())
		resp := postQuery(t, ts, queryRequest{Query: src})
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		ts.Close()
		var e errorResponse
		if resp.StatusCode != http.StatusUnprocessableEntity || json.Unmarshal(body, &e) != nil ||
			!strings.HasPrefix(e.Error, "query failed: "+govern.ErrBudgetExceeded.Error()) {
			t.Fatalf("cap %d of %d rows: status %d body %s, want 422 and the budget error", maxRows, n, resp.StatusCode, body)
		}
	}
}

// BenchmarkQueryHandler sends unpaged POST /query requests through the
// server's Handler over httptest, reading every response body: a dense
// two-path of about 15 000 rows, where the answer's copies dominate the
// allocation, and a sparse constant lookup, where per-request overhead does.
func BenchmarkQueryHandler(b *testing.B) {
	eng := core.NewEngine()
	registerDense(b, eng, 125, 900, 40, 180)
	for _, name := range []string{"G", "H"} {
		if _, err := eng.Register(name, dataset.Community(2000, 0, 7).Pairs()); err != nil {
			b.Fatal(err)
		}
	}
	ts := httptest.NewServer(New(Config{Engine: eng}).Handler())
	b.Cleanup(ts.Close)
	for _, bc := range []struct{ name, src string }{
		{"dense_2path", "Q(x, z) :- D(x, y), D(z, y)"},
		{"sparse_lookup", "Q(z) :- G(5, y), H(y, z)"},
	} {
		b.Run(bc.name, func(b *testing.B) {
			req, _ := json.Marshal(queryRequest{Query: bc.src})
			var rows int
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				resp, err := http.Post(ts.URL+"/query", "application/json", bytes.NewReader(req))
				if err != nil {
					b.Fatal(err)
				}
				var got servedAnswer
				err = json.NewDecoder(resp.Body).Decode(&got)
				resp.Body.Close()
				if err != nil || resp.StatusCode != http.StatusOK {
					b.Fatalf("status %d: %v", resp.StatusCode, err)
				}
				rows = got.Rows
			}
			b.ReportMetric(float64(rows), "rows/op")
		})
	}
}
