package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"slices"
	"strings"
	"time"

	"repro/internal/relation"
)

// queryLoad is the read workloads' shared machinery: an operation is one
// pass over the shapes, each sent as POST /query with the operation's
// constant in its slot.
type queryLoad struct {
	nclients int
	warm     int // warm-up operations per client
	names    []string
	rels     map[string][]relation.Pair
	shapes   []shape
	// pool holds the constants operations rotate through; a single 0 when
	// the shapes have no slot. check lists the pool positions whose texts
	// are compared in full with the oracle and hashed into the plan digest;
	// the timed loop never reaches them when the pool overflows the cache.
	pool  []int32
	check []int

	bodies [][][]byte // [shape][pool position] → request body
	rows   [][]int    // [shape][pool position] → oracle row count
	want   []answers

	// kernel and fullJoin let the traced pass replay the join-project calls
	// of the dense shapes; nil where requests carry constants and the folds
	// run on relations the compile step has already cut down.
	kernel   kernelFunc
	fullJoin func(rel func(string) *relation.Relation) int64

	n              *node
	classLat       [][][]time.Duration // [client][shape] → request latencies
	hits0, misses0 uint64              // plan-cache counters when the window opened
}

func newQueryLoad(nclients, warm int, names []string, rels map[string][]relation.Pair,
	shapes []shape, pool []int32, check []int) *queryLoad {
	q := &queryLoad{nclients: nclients, warm: warm, names: names, rels: rels,
		shapes: shapes, pool: pool, check: check}
	for _, s := range shapes {
		ans := solve(s, rels)
		bodies := make([][]byte, len(pool))
		rows := make([]int, len(pool))
		for i, c := range pool {
			bodies[i] = queryJSON(s.text(c, ""))
			rows[i] = len(ans.get(s, c))
		}
		q.want = append(q.want, ans)
		q.bodies = append(q.bodies, bodies)
		q.rows = append(q.rows, rows)
	}
	return q
}

func (q *queryLoad) clients() int { return q.nclients }
func (q *queryLoad) warmOps() int { return q.warm }

func (q *queryLoad) begin() {
	q.hits0, q.misses0, _ = q.n.eng.Catalog().CacheStats()
	for ci := range q.classLat {
		q.classLat[ci] = make([][]time.Duration, len(q.shapes))
	}
}

func (q *queryLoad) setup() error {
	n, err := boot("", 0)
	if err != nil {
		return err
	}
	q.n = n
	q.classLat = make([][][]time.Duration, q.nclients)
	q.begin()
	c := newClient()
	defer c.close()
	for _, name := range q.names {
		if _, err := c.post(n.base+"/catalog/relations", pairsJSON(name, q.rels[name])); err != nil {
			return err
		}
	}
	for ci := 0; ci < q.nclients; ci++ {
		for i := 0; i < q.warm; i++ {
			if _, ok := q.op(c, ci, i); !ok {
				return fmt.Errorf("warm-up operation %d of client %d failed", i, ci)
			}
		}
	}
	return nil
}

// position maps a client's i-th operation to a pool position; clients
// interleave so two never send the same text in the same round.
func (q *queryLoad) position(ci, i int) int { return (i*q.nclients + ci) % q.reach() }

// overflows reports whether the pool's texts exceed the plan cache, so that
// a text sent twice must not be: then only a few positions are checked.
func (q *queryLoad) overflows() bool { return len(q.check) < len(q.pool) }

// reach is how much of the pool operations rotate through: all of it, or
// all but the checked tail when the pool overflows the cache.
func (q *queryLoad) reach() int {
	if q.overflows() {
		return len(q.pool) - len(q.check)
	}
	return len(q.pool)
}

func (q *queryLoad) op(c *client, ci, i int) (time.Duration, bool) {
	pos := q.position(ci, i)
	var total time.Duration
	ok := true
	for s := range q.shapes {
		t0 := time.Now()
		status, resp, err := c.do(http.MethodPost, q.n.base+"/query", q.bodies[s][pos])
		d := time.Since(t0)
		total += d
		q.classLat[ci][s] = append(q.classLat[ci][s], d)
		rows, found := intField(resp, "rows")
		if err != nil || status != http.StatusOK || !found || rows != q.rows[s][pos] {
			ok = false
		}
	}
	return total, ok
}

func (q *queryLoad) planDigest() (string, error) {
	c := newClient()
	defer c.close()
	h := sha256.New()
	for _, s := range q.shapes {
		for _, pos := range q.check {
			body, _ := json.Marshal(map[string]any{"query": s.text(q.pool[pos], ""), "analyze": true})
			resp, err := c.post(q.n.base+"/explain", body)
			if err != nil {
				return "", err
			}
			var out struct {
				Strategies []string `json:"strategies"`
			}
			if err := json.Unmarshal(resp, &out); err != nil {
				return "", err
			}
			fmt.Fprintf(h, "%s/%d:%s\n", s.name, pos, strings.Join(out.Strategies, ","))
		}
	}
	return hex.EncodeToString(h.Sum(nil))[:16], nil
}

func (q *queryLoad) verify() error {
	c := newClient()
	defer c.close()
	for si, s := range q.shapes {
		for _, pos := range q.check {
			resp, err := c.post(q.n.base+"/query", q.bodies[si][pos])
			if err != nil {
				return err
			}
			var out struct {
				Tuples [][]int64 `json:"tuples"`
			}
			if err := json.Unmarshal(resp, &out); err != nil {
				return err
			}
			if want := q.want[si].get(s, q.pool[pos]); !sameTuples(out.Tuples, want) {
				return fmt.Errorf("%s: served %d rows, the oracle has %d, and they differ",
					s.text(q.pool[pos], ""), len(out.Tuples), len(want))
			}
		}
	}
	return nil
}

func (q *queryLoad) stop() error {
	if q.n == nil {
		return nil
	}
	err := q.n.stop()
	q.n = nil
	return err
}

// classP50 is the median round trip in ms of shape si's requests since begin,
// over all clients.
func (q *queryLoad) classP50(si int) float64 {
	var all []time.Duration
	for ci := range q.classLat {
		all = append(all, q.classLat[ci][si]...)
	}
	return ms(median(all))
}

func (q *queryLoad) diagnostics(d map[string]any) {
	class := map[string]float64{}
	rows := map[string]int{}
	for si, s := range q.shapes {
		class[s.name] = q.classP50(si)
		rows[s.name] = q.rows[si][q.check[0]]
	}
	d["request_p50_ms"] = class
	d["request_rows"] = rows
	d["distinct_texts"] = len(q.shapes) * q.reach()
}

// The dense shapes: the paper's two-path and star queries and a chain, over
// set families (x a set, y an element). The count variants keep the bodies
// and reduce the head to (group, COUNT).
func denseShapes(count bool) []shape {
	shapes := []shape{
		{name: "self_2path", head: []string{"x", "z"}, atoms: []atom{{"D", "x", "y"}, {"D", "z", "y"}}},
		{name: "cross_2path", head: []string{"x", "z"}, atoms: []atom{{"D", "x", "y"}, {"E", "z", "y"}}},
		{name: "star3", head: []string{"a", "b", "c"}, atoms: []atom{{"Ds", "a", "y"}, {"Es", "b", "y"}, {"Fs", "c", "y"}}},
		{name: "chain3", head: []string{"a", "d"}, atoms: []atom{{"D", "a", "b"}, {"E", "c", "b"}, {"Fc", "c", "d"}}},
	}
	if count {
		for i := range shapes {
			h := shapes[i].head
			shapes[i].head, shapes[i].count = h[:1], h[len(h)-1]
		}
	}
	return shapes
}

func denseLoad(seed int64, sz sizes, count bool) *queryLoad {
	rng := rand.New(rand.NewSource(seed))
	rels := map[string][]relation.Pair{}
	for _, name := range []string{"D", "E", "F"} {
		rels[name] = zipfSets(rng, sz.denseSets, sz.denseDomain, sz.denseMinSet, sz.denseMaxSet, sz.denseSkew)
	}
	for _, name := range []string{"D", "E", "F"} {
		rels[name+"s"] = restrict(rels[name], sz.starSets, sz.denseDomain)
	}
	rels["Fc"] = restrict(rels["F"], sz.denseSets, sz.chainElems)
	delete(rels, "F")
	names := []string{"D", "E", "Ds", "Es", "Fs", "Fc"}
	q := newQueryLoad(1, 6, names, rels, denseShapes(count), []int32{0}, []int{0})
	q.kernel, q.fullJoin = denseRowsKernel, denseFullJoin
	if count {
		q.kernel = denseCountKernel
	}
	return q
}

// The sparse shapes: five small lookups around one vertex. The two cyclic
// ones carry the constant in an extra selection atom, so their bodies stay
// cyclic for the planner and compile through hypertree decomposition.
var sparseShapes = []shape{
	{name: "2path", head: []string{"z"}, atoms: []atom{{"G", slot, "y"}, {"H", "y", "z"}}},
	{name: "chain3", head: []string{"w"}, atoms: []atom{{"G", slot, "y"}, {"H", "y", "z"}, {"G", "z", "w"}}},
	{name: "count", count: "z", atoms: []atom{{"G", slot, "y"}, {"H", "y", "z"}}},
	{name: "triangle", head: []string{"x", "z"}, atoms: []atom{{"H", slot, "x"}, {"G", "x", "y"}, {"H", "y", "z"}, {"G", "x", "z"}}},
	{name: "cycle4", head: []string{"x", "z"}, atoms: []atom{{"H", slot, "x"}, {"G", "x", "y"}, {"H", "y", "z"}, {"G", "x", "w"}, {"H", "w", "z"}}},
}

// sparseLoad builds sparse_lookup (cold false: the pool's texts fit the plan
// cache) and cold_compile (cold true: they overflow it). Data and shapes are
// the same; only the pool differs.
func sparseLoad(seed int64, sz sizes, nclients int, cold bool) *queryLoad {
	rng := rand.New(rand.NewSource(seed))
	rels := map[string][]relation.Pair{
		"G": sparseGraph(rng, sz.sparseNodes),
		"H": sparseGraph(rng, sz.sparseNodes),
	}
	// Every vertex has out-edges in both graphs, so every constant is
	// present in the data.
	perm := rng.Perm(sz.sparseNodes)
	size, warm := sz.hitPool, 3*sz.hitPool
	var check []int
	if cold {
		size, warm = sz.coldPool, 4
		for i := size - sz.coldVerify; i < size; i++ {
			check = append(check, i)
		}
	} else {
		for i := 0; i < size; i++ {
			check = append(check, i)
		}
	}
	pool := make([]int32, size)
	for i := range pool {
		pool[i] = int32(perm[i])
	}
	return newQueryLoad(nclients, warm, []string{"G", "H"}, rels, sparseShapes, pool, check)
}

// sortedKeys returns a map's keys in order, for stable reports.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}
