package view_test

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"

	"repro/internal/catalog"
	"repro/internal/optimizer"
	"repro/internal/query"
	"repro/internal/relation"
	"repro/internal/snapshot"
	"repro/internal/view"
)

// oracle evaluates q by brute-force backtracking over the atoms (index-
// accelerated nested loops), returning the distinct head tuples — with the
// COUNT aggregate applied — in sorted order. It shares no code with the
// engine's executor or the view maintenance, which is the point.
func oracle(t *testing.T, q *query.Query, rels map[string]*relation.Relation) [][]int64 {
	t.Helper()
	vals := map[string]int32{}
	var rows [][]int32
	headVars := q.HeadVars()

	var solve func(k int)
	solve = func(k int) {
		if k == len(q.Atoms) {
			row := make([]int32, len(headVars))
			for i, hv := range headVars {
				row[i] = vals[hv]
			}
			rows = append(rows, row)
			return
		}
		a := q.Atoms[k]
		r := rels[a.Rel]
		if r == nil {
			return
		}
		t0, t1 := a.Args[0], a.Args[1]
		val := func(tm query.Term) (int32, bool) {
			if tm.IsConst {
				return tm.Value, true
			}
			v, ok := vals[tm.Var]
			return v, ok
		}
		bind := func(tm query.Term, v int32) func() {
			if tm.IsConst || func() bool { _, ok := vals[tm.Var]; return ok }() {
				return func() {}
			}
			vals[tm.Var] = v
			return func() { delete(vals, tm.Var) }
		}
		v0, ok0 := val(t0)
		v1, ok1 := val(t1)
		switch {
		case ok0 && ok1:
			if r.Contains(v0, v1) {
				solve(k + 1)
			}
		case ok0:
			for _, y := range r.ByX().Lookup(v0) {
				undo := bind(t1, y)
				if !t1.IsConst && t0.Var == t1.Var && y != v0 {
					undo()
					continue
				}
				solve(k + 1)
				undo()
			}
		case ok1:
			for _, x := range r.ByY().Lookup(v1) {
				undo := bind(t0, x)
				solve(k + 1)
				undo()
			}
		default:
			for _, p := range r.Pairs() {
				if !t0.IsConst && !t1.IsConst && t0.Var == t1.Var && p.X != p.Y {
					continue
				}
				u0 := bind(t0, p.X)
				u1 := bind(t1, p.Y)
				solve(k + 1)
				u1()
				u0()
			}
		}
	}
	solve(0)

	// Distinct over the head variables.
	seen := map[string]bool{}
	var distinct [][]int32
	for _, r := range rows {
		k := fmt.Sprint(r)
		if !seen[k] {
			seen[k] = true
			distinct = append(distinct, r)
		}
	}

	ci := q.CountIndex()
	var out [][]int64
	if ci < 0 {
		pos := termPositions(q, headVars)
		for _, r := range distinct {
			row := make([]int64, len(q.Head))
			for i, p := range pos {
				row[i] = int64(r[p])
			}
			out = append(out, row)
		}
	} else {
		pos := termPositions(q, headVars)
		groups := map[string]*struct {
			vals  []int32
			count int64
		}{}
		var order []string
		for _, r := range distinct {
			var gk []int32
			for i, p := range pos {
				if i != ci {
					gk = append(gk, r[p])
				}
			}
			k := fmt.Sprint(gk)
			g, ok := groups[k]
			if !ok {
				g = &struct {
					vals  []int32
					count int64
				}{vals: gk}
				groups[k] = g
				order = append(order, k)
			}
			g.count++
		}
		if len(q.Head) == 1 {
			return [][]int64{{int64(len(distinct))}}
		}
		for _, k := range order {
			g := groups[k]
			row := make([]int64, len(q.Head))
			gi := 0
			for i := range q.Head {
				if i == ci {
					row[i] = g.count
				} else {
					row[i] = int64(g.vals[gi])
					gi++
				}
			}
			out = append(out, row)
		}
	}
	sortRows(out)
	return out
}

// termPositions maps each head term to its head-variable position.
func termPositions(q *query.Query, headVars []string) []int {
	pos := make([]int, len(q.Head))
	for i, h := range q.Head {
		for j, hv := range headVars {
			if hv == h.Var {
				pos[i] = j
				break
			}
		}
	}
	return pos
}

func sortRows(rows [][]int64) {
	sort.Slice(rows, func(i, j int) bool {
		for k := range rows[i] {
			if rows[i][k] != rows[j][k] {
				return rows[i][k] < rows[j][k]
			}
		}
		return false
	})
}

func rowsEqual(a, b [][]int64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return false
		}
		for j := range a[i] {
			if a[i][j] != b[i][j] {
				return false
			}
		}
	}
	return true
}

// harness wires a catalog, an optimizer-backed evaluator and a registry.
type harness struct {
	cat *catalog.Catalog
	reg *view.Registry
}

func newHarness() *harness {
	cat := catalog.New()
	opt := optimizer.New()
	eval := func(ctx context.Context, src string) (*query.Result, error) {
		p, _, err := cat.PrepareContext(ctx, src)
		if err != nil {
			return nil, err
		}
		return p.Execute(ctx, query.ExecOptions{Optimizer: opt})
	}
	reg := view.NewRegistry(view.Config{Catalog: cat, Optimizer: opt, Evaluate: eval})
	return &harness{cat: cat, reg: reg}
}

func randomPairs(rng *rand.Rand, n, domain int) []relation.Pair {
	out := make([]relation.Pair, n)
	for i := range out {
		out[i] = relation.Pair{X: int32(rng.Intn(domain)), Y: int32(rng.Intn(domain))}
	}
	return out
}

// checkView asserts one view's served result equals the oracle on the
// current catalog contents, that its pages of 1, 7 and total+1 rows
// concatenate to exactly that result, and that an incremental view's
// counted store holds at most one dead member per live one and lists its
// members in strictly ascending head order. Odd steps read a page first, so
// both Page and Result take the first read after a mutation.
func checkView(t *testing.T, h *harness, name, src string, step int) {
	t.Helper()
	v, ok := h.reg.Get(name)
	if !ok {
		t.Fatalf("view %q missing", name)
	}
	if v.Mode() == view.ModeIncremental {
		if members, live := view.StoreSize(v); members > 2*live || v.Rows() != live {
			t.Fatalf("step %d: view %q store holds %d members for %d live, Rows() = %d", step, name, members, live, v.Rows())
		}
	}
	if step%2 != 0 {
		pageThrough(t, v, 7)
	}
	_, got, _, err := v.Result(context.Background())
	if err != nil {
		t.Fatalf("step %d: view %q: %v", step, name, err)
	}
	for _, limit := range []int{1, 7, len(got) + 1} {
		if pages, total := pageThrough(t, v, limit); total != len(got) || !rowsEqual(pages, got) {
			t.Fatalf("step %d: view %q: pages of %d hold %v (total %d), Result %v", step, name, limit, pages, total, got)
		}
	}
	if v.Mode() == view.ModeIncremental {
		members := view.SortedMembers(v)
		for i := 1; i < len(members); i++ {
			if slices.Compare(members[i-1], members[i]) >= 0 {
				t.Fatalf("step %d: view %q: members %v then %v out of head order", step, name, members[i-1], members[i])
			}
		}
		if len(members) != v.Rows() {
			t.Fatalf("step %d: view %q lists %d members in order, Rows() = %d", step, name, len(members), v.Rows())
		}
	}
	q, err := query.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	rels := map[string]*relation.Relation{}
	for _, in := range h.cat.List() {
		r, _ := h.cat.Get(in.Name)
		rels[in.Name] = r
	}
	want := oracle(t, q, rels)
	if !rowsEqual(got, want) {
		t.Fatalf("step %d: view %q diverged:\n got %v\nwant %v", step, name, got, want)
	}
}

// pageThrough reads v page by page, limit rows at a time, and returns the
// rows served and the total every page reported.
func pageThrough(t *testing.T, v *view.View, limit int) ([][]int64, int) {
	t.Helper()
	var rows [][]int64
	total := -1
	for offset := 0; ; offset += limit {
		_, page, n, _, err := v.Page(context.Background(), offset, limit)
		if err != nil {
			t.Fatalf("view %q: page at %d: %v", v.Name(), offset, err)
		}
		if total >= 0 && n != total {
			t.Fatalf("view %q: page at %d reports %d rows, earlier pages %d", v.Name(), offset, n, total)
		}
		total = n
		rows = append(rows, page...)
		if len(page) < limit || offset+limit >= total {
			return rows, total
		}
	}
}

// viewSuite is the plan-shape coverage the differential driver maintains:
// two-path, self-join two-path, chain (tree), star, interior-head tree
// (enumerate shape), grouped aggregate, a cyclic triangle that falls back to
// refresh — and the heads and bodies the shared query analysis and head
// projector must not get wrong: a repeated head variable, a bare aggregate,
// a self-join chain (three slots over one relation), a 4-arm star, and a
// branching tree with an interior head.
var viewSuite = map[string]string{
	"vp": "VP(x, z) :- R(x, y), S(y, z)",
	"vj": "VJ(x, z) :- R(x, y), R(z, y)",
	"vc": "VC(a, d) :- R(a, b), S(b, c), T(c, d)",
	"vs": "VS(a, b, c) :- R(a, y), S(b, y), T(c, y)",
	"ve": "VE(a, b, c) :- R(a, b), S(b, c)",
	"vg": "VG(x, COUNT(z)) :- R(x, y), S(y, z)",
	// COUNT first: the group key is not a prefix of the store's sort order.
	"vg2":  "VG2(COUNT(a), c) :- R(a, b), S(b, c)",
	"vt":   "VT(x, z) :- R(x, y), S(y, z), T(z, x)",
	"vrep": "VREP(x, x, z) :- R(x, y), S(y, z)",
	"vcnt": "VCNT(COUNT(z)) :- R(x, y), S(y, z)",
	"vsj":  "VSJ(a, d) :- R(a, b), R(b, c), R(c, d)",
	"vs4":  "VS4(a, b, c, d) :- R(a, y), S(b, y), T(c, y), R(d, y)",
	"vbr":  "VBR(a, b, e) :- R(a, b), S(b, c), T(b, d), R(d, e)",
}

// exportIncremental snapshots every incremental view's counted store — head
// values and witness counts — in a comparable form, and asserts each image
// lists its tuples in strictly ascending head order.
func exportIncremental(t *testing.T, h *harness) map[string][]string {
	t.Helper()
	out := map[string][]string{}
	for _, st := range h.reg.ExportStates() {
		if !st.Incremental {
			continue
		}
		entries := make([]string, len(st.Counts))
		for i, c := range st.Counts {
			tup := st.Vals[i*st.Width : (i+1)*st.Width]
			if i > 0 && slices.Compare(st.Vals[(i-1)*st.Width:i*st.Width], tup) >= 0 {
				t.Fatalf("view %q: image entry %d %v is not above its predecessor", st.Name, i, tup)
			}
			entries[i] = fmt.Sprint(tup, "×", c)
		}
		sort.Strings(entries)
		out[st.Name] = entries
	}
	return out
}

// TestDifferentialRandomMutations drives 240 random insert/delete batches
// against views of every plan shape, asserting each maintained result
// equals a from-scratch nested-loop recompute after every step.
func TestDifferentialRandomMutations(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	h := newHarness()
	const domain = 18
	for _, name := range []string{"R", "S", "T"} {
		if _, err := h.cat.RegisterPairs(name, randomPairs(rng, 50, domain)); err != nil {
			t.Fatal(err)
		}
	}
	names := make([]string, 0, len(viewSuite))
	for name, src := range viewSuite {
		if _, err := h.reg.Register(context.Background(), name, src); err != nil {
			t.Fatalf("register %q: %v", name, err)
		}
		names = append(names, name)
	}
	sort.Strings(names)

	// Mode expectations.
	for _, name := range names {
		v, _ := h.reg.Get(name)
		wantMode := view.ModeIncremental
		if name == "vt" {
			wantMode = view.ModeRefresh
		}
		if v.Mode() != wantMode {
			t.Fatalf("view %q mode = %q, want %q", name, v.Mode(), wantMode)
		}
	}
	for _, name := range names {
		checkView(t, h, name, viewSuite[name], -1)
	}

	relNames := []string{"R", "S", "T"}
	for step := 0; step < 240; step++ {
		rel := relNames[rng.Intn(len(relNames))]
		if step%8 == 0 {
			// Metamorphic: a batch followed by its exact inverse returns every
			// counted store — values and witness counts — to where it was.
			before := exportIncremental(t, h)
			r, _ := h.cat.Get(rel)
			ps := r.Pairs()
			m, err := h.cat.Mutate(rel, randomPairs(rng, 1+rng.Intn(6), domain), ps[:min(len(ps), rng.Intn(4))])
			if err != nil {
				t.Fatal(err)
			}
			if _, err := h.cat.Mutate(rel, m.Removed, m.Added); err != nil {
				t.Fatal(err)
			}
			if after := exportIncremental(t, h); !reflect.DeepEqual(after, before) {
				t.Fatalf("step %d: Δ%s then its inverse left the stores changed:\n got %v\nwant %v", step, rel, after, before)
			}
		}
		switch rng.Intn(10) {
		case 0:
			// Occasional wholesale re-register (Reset path).
			if _, err := h.cat.RegisterPairs(rel, randomPairs(rng, 40+rng.Intn(30), domain)); err != nil {
				t.Fatal(err)
			}
		case 1, 2, 3:
			// Delete a sample of existing tuples plus a few random misses.
			r, _ := h.cat.Get(rel)
			ps := r.Pairs()
			var del []relation.Pair
			for i := 0; i < 1+rng.Intn(6) && len(ps) > 0; i++ {
				del = append(del, ps[rng.Intn(len(ps))])
			}
			del = append(del, randomPairs(rng, rng.Intn(2), domain)...)
			if _, err := h.cat.DeletePairs(rel, del); err != nil {
				t.Fatal(err)
			}
		case 4:
			// Mixed batch through Mutate.
			r, _ := h.cat.Get(rel)
			ps := r.Pairs()
			var del []relation.Pair
			if len(ps) > 0 {
				del = append(del, ps[rng.Intn(len(ps))])
			}
			if _, err := h.cat.Mutate(rel, randomPairs(rng, 1+rng.Intn(4), domain), del); err != nil {
				t.Fatal(err)
			}
		default:
			if _, err := h.cat.InsertPairs(rel, randomPairs(rng, 1+rng.Intn(6), domain)); err != nil {
				t.Fatal(err)
			}
		}
		for _, name := range names {
			checkView(t, h, name, viewSuite[name], step)
		}
	}
}

// TestTwoPathThousandMutations is the acceptance sequence: a registered
// two-path view stays correct under 1k mixed inserts/deletes.
func TestTwoPathThousandMutations(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	h := newHarness()
	const domain = 60
	if _, err := h.cat.RegisterPairs("R", randomPairs(rng, 220, domain)); err != nil {
		t.Fatal(err)
	}
	if _, err := h.cat.RegisterPairs("S", randomPairs(rng, 220, domain)); err != nil {
		t.Fatal(err)
	}
	src := "VP(x, z) :- R(x, y), S(y, z)"
	if _, err := h.reg.Register(context.Background(), "vp", src); err != nil {
		t.Fatal(err)
	}
	effective := uint64(0)
	for step := 0; step < 1000; step++ {
		rel := []string{"R", "S"}[rng.Intn(2)]
		var m catalog.Mutation
		var err error
		if rng.Intn(2) == 0 {
			r, _ := h.cat.Get(rel)
			ps := r.Pairs()
			var del []relation.Pair
			for i := 0; i < 1+rng.Intn(4) && len(ps) > 0; i++ {
				del = append(del, ps[rng.Intn(len(ps))])
			}
			m, err = h.cat.DeletePairs(rel, del)
		} else {
			m, err = h.cat.InsertPairs(rel, randomPairs(rng, 1+rng.Intn(4), domain))
		}
		if err != nil {
			t.Fatal(err)
		}
		if !m.Empty() {
			effective++
		}
		if step < 100 || step%10 == 0 || step == 999 {
			checkView(t, h, "vp", src, step)
		}
	}
	v, _ := h.reg.Get("vp")
	// Updates = the 2 seeding batches + every effective mutation batch
	// (fully coalesced-away batches never reach the view).
	if f := v.Freshness(); f.Updates != 2+effective {
		t.Fatalf("updates = %d, want %d", f.Updates, 2+effective)
	}
	if effective < 900 {
		t.Fatalf("effective mutations = %d; the driver should produce ≥ 900", effective)
	}
	// Emptying R kills every output tuple, and compaction drops them all.
	r, _ := h.cat.Get("R")
	if _, err := h.cat.DeletePairs("R", r.Pairs()); err != nil {
		t.Fatal(err)
	}
	checkView(t, h, "vp", src, 1000)
	if members, _ := view.StoreSize(v); members != 0 {
		t.Fatalf("store holds %d members after R was emptied", members)
	}
}

// TestKernelDeltaPath forces a delta batch past kernelDeltaMin so the
// two-path maintenance runs the MM/WCOJ kernels, and checks the strategy is
// recorded and the result stays exact.
func TestKernelDeltaPath(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	h := newHarness()
	const domain = 80
	if _, err := h.cat.RegisterPairs("R", randomPairs(rng, 400, domain)); err != nil {
		t.Fatal(err)
	}
	if _, err := h.cat.RegisterPairs("S", randomPairs(rng, 400, domain)); err != nil {
		t.Fatal(err)
	}
	src := "VP(x, z) :- R(x, y), S(y, z)"
	if _, err := h.reg.Register(context.Background(), "vp", src); err != nil {
		t.Fatal(err)
	}
	if _, err := h.cat.InsertPairs("R", randomPairs(rng, 500, domain)); err != nil {
		t.Fatal(err)
	}
	checkView(t, h, "vp", src, 0)
	v, _ := h.reg.Get("vp")
	f := v.Freshness()
	found := false
	for _, s := range f.Strategies {
		if strings.Contains(s, "mm") || strings.Contains(s, "wcoj") {
			found = true
		}
	}
	if !found {
		t.Fatalf("kernel strategies not recorded: %v", f.Strategies)
	}
	// And a large delete batch back through the kernels.
	r, _ := h.cat.Get("R")
	if _, err := h.cat.DeletePairs("R", r.Pairs()[:300]); err != nil {
		t.Fatal(err)
	}
	checkView(t, h, "vp", src, 1)
}

// TestRefreshStaleness covers the refresh fallback: stale flags, lazy
// refresh on read, and the eager staleness bound.
func TestRefreshStaleness(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	h := newHarness()
	for _, name := range []string{"R", "S", "T"} {
		if _, err := h.cat.RegisterPairs(name, randomPairs(rng, 40, 12)); err != nil {
			t.Fatal(err)
		}
	}
	src := "VT(x, z) :- R(x, y), S(y, z), T(z, x)"
	v, err := h.reg.Register(context.Background(), "vt", src)
	if err != nil {
		t.Fatal(err)
	}
	if v.Mode() != view.ModeRefresh {
		t.Fatalf("mode = %q", v.Mode())
	}
	if f := v.Freshness(); f.Stale || f.Reason == "" {
		t.Fatalf("fresh after registration, with a reason: %+v", f)
	}
	if _, err := h.cat.InsertPairs("R", randomPairs(rng, 3, 12)); err != nil {
		t.Fatal(err)
	}
	if f := v.Freshness(); !f.Stale || f.PendingBatches != 1 {
		t.Fatalf("should be stale with 1 pending batch: %+v", f)
	}
	checkView(t, h, "vt", src, 0) // lazy refresh on read
	if f := v.Freshness(); f.Stale || f.PendingBatches != 0 {
		t.Fatalf("read should have refreshed: %+v", f)
	}
	// Eager refresh after the staleness bound: use guaranteed-new tuples so
	// every batch is effective (coalesced no-ops never reach the view).
	for i := 0; i < view.DefaultRefreshAfter; i++ {
		p := relation.Pair{X: int32(100 + i), Y: int32(200 + i)}
		if _, err := h.cat.InsertPairs("T", []relation.Pair{p}); err != nil {
			t.Fatal(err)
		}
	}
	if f := v.Freshness(); f.Stale {
		t.Fatalf("staleness bound should have forced an eager refresh: %+v", f)
	}
}

// TestMaintenancePlanExplain checks the EXPLAIN rendering of maintenance
// plans for each mode.
func TestMaintenancePlanExplain(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	h := newHarness()
	for _, name := range []string{"R", "S", "T"} {
		if _, err := h.cat.RegisterPairs(name, randomPairs(rng, 30, 10)); err != nil {
			t.Fatal(err)
		}
	}
	for name, src := range viewSuite {
		if _, err := h.reg.Register(context.Background(), name, src); err != nil {
			t.Fatalf("register %q: %v", name, err)
		}
	}
	cases := map[string][]string{
		"vp": {"maintain", "shape=twopath", "deltafold", "cost model per delta"},
		"vs": {"maintain", "shape=star", "deltastar", "affected arm only"},
		"vc": {"deltatree", "backtracking"},
		"vt": {"maintain", "refresh", "pending batches"},
	}
	for name, wants := range cases {
		v, _ := h.reg.Get(name)
		got := v.MaintenancePlan().String()
		for _, want := range wants {
			if !strings.Contains(got, want) {
				t.Errorf("view %q maintenance plan missing %q:\n%s", name, want, got)
			}
		}
	}
}

// TestRegistryBasics covers registration errors, listing and dropping.
func TestRegistryBasics(t *testing.T) {
	h := newHarness()
	if _, err := h.cat.RegisterPairs("R", randomPairs(rand.New(rand.NewSource(1)), 10, 5)); err != nil {
		t.Fatal(err)
	}
	if _, err := h.reg.Register(context.Background(), "v", "Q(x, z) :- R(x, y), R(y, z)"); err != nil {
		t.Fatal(err)
	}
	if _, err := h.reg.Register(context.Background(), "v", "Q(x, z) :- R(x, y), R(y, z)"); err == nil {
		t.Fatal("duplicate registration should error")
	}
	if _, err := h.reg.Register(context.Background(), "", "Q(x, z) :- R(x, y), R(y, z)"); err == nil {
		t.Fatal("empty name should error")
	}
	if _, err := h.reg.Register(context.Background(), "w", "Q(x, z) :- Missing(x, y), R(y, z)"); err == nil {
		t.Fatal("unknown relation should error")
	}
	if _, err := h.reg.Register(context.Background(), "w", "not a query"); err == nil {
		t.Fatal("parse error should propagate")
	}
	infos := h.reg.List()
	if len(infos) != 1 || infos[0].Name != "v" || h.reg.Len() != 1 {
		t.Fatalf("List = %+v", infos)
	}
	if !h.reg.Drop("v") || h.reg.Drop("v") {
		t.Fatal("drop semantics")
	}
}

// TestRestoreRejectsMalformedImages feeds Restore images that do not fit
// the view: each is rejected instead of restored wrongly, while zero-count
// entries and an empty image (which records no width) restore cleanly.
func TestRestoreRejectsMalformedImages(t *testing.T) {
	h := newHarness()
	pairs := []relation.Pair{{X: 1, Y: 2}, {X: 2, Y: 3}}
	for _, name := range []string{"R", "S"} {
		if _, err := h.cat.RegisterPairs(name, pairs); err != nil {
			t.Fatal(err)
		}
	}
	const src = "VP(x, z) :- R(x, y), S(y, z)"
	img := func(width int, vals []int32, counts ...int64) snapshot.View {
		return snapshot.View{Name: "vp", Text: src, Incremental: true, Width: width, Vals: vals, Counts: counts}
	}
	bad := map[string]snapshot.View{
		"repeated tuple": img(2, []int32{1, 3, 1, 3}, 1, 2),
		"wrong width":    img(1, []int32{1}, 1),
		"short values":   img(2, []int32{1, 3, 4}, 1, 1),
		"refresh image":  {Name: "vp", Text: src},
	}
	for what, im := range bad {
		if err := h.reg.Restore(im); err == nil {
			t.Errorf("%s: restored cleanly", what)
		}
		if h.reg.Len() != 0 {
			t.Fatalf("%s: a rejected image left a view behind", what)
		}
	}
	if err := h.reg.Restore(img(2, []int32{7, 7, 1, 3}, 0, 1)); err != nil {
		t.Fatal(err)
	}
	checkView(t, h, "vp", src, 0)
	if v, _ := h.reg.Get("vp"); v.Rows() != 1 {
		t.Fatalf("zero-count entry restored: Rows() = %d", v.Rows())
	}
	if err := h.reg.Restore(snapshot.View{Name: "ve", Text: "VE(x, z) :- S(x, y), R(y, z)", Incremental: true}); err != nil {
		t.Fatal(err)
	}
	if v, _ := h.reg.Get("ve"); v.Rows() != 0 {
		t.Fatalf("empty image restored %d rows", v.Rows())
	}
}

// TestUnreadViewBoundsBirths churns a view nobody reads: 5 000 batches
// that each insert or delete a few tuples, so members die and are born
// again without ever growing the store enough to compact it. The list of
// members born since the last merge must stay within the live count.
func TestUnreadViewBoundsBirths(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	h := newHarness()
	const domain = 12
	for _, name := range []string{"R", "S"} {
		if _, err := h.cat.RegisterPairs(name, randomPairs(rng, 30, domain)); err != nil {
			t.Fatal(err)
		}
	}
	v, err := h.reg.Register(context.Background(), "vp", "VP(x, z) :- R(x, y), S(y, z)")
	if err != nil {
		t.Fatal(err)
	}
	for batch := 0; batch < 5000; batch++ {
		rel := []string{"R", "S"}[batch%2]
		ps := randomPairs(rng, 1+rng.Intn(4), domain)
		if batch%4 >= 2 {
			_, err = h.cat.DeletePairs(rel, ps)
		} else {
			_, err = h.cat.InsertPairs(rel, ps)
		}
		if err != nil {
			t.Fatal(err)
		}
		if born, live := view.Births(v); born > max(live, 1) {
			t.Fatalf("batch %d: %d members born since the last merge, %d live", batch, born, live)
		}
	}
	checkView(t, h, "vp", "VP(x, z) :- R(x, y), S(y, z)", 0)
}

// TestRestoresInsertionOrderImage restores testdata/parent.snap from the
// snapshot package, written before images were kept in head order (its
// two-wide view lists (1, 7) before (-3, 0)), applies one mutation, and
// checks every view still pages out exactly its sorted result, which
// Materialize has built for every incremental view, as recovery does.
func TestRestoresInsertionOrderImage(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "snapshot", "testdata", "parent.snap"))
	if err != nil {
		t.Fatal(err)
	}
	st, err := snapshot.Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	h := newHarness()
	for _, r := range st.Relations {
		if _, err := h.cat.RegisterPairs(r.Name, r.Pairs); err != nil {
			t.Fatal(err)
		}
	}
	for _, img := range st.Views {
		if err := h.reg.Restore(img); err != nil {
			t.Fatalf("restore %q: %v", img.Name, err)
		}
	}
	if _, err := h.cat.InsertPairs("S", []relation.Pair{{X: 2, Y: 4}, {X: 3, Y: -5}, {X: 1, Y: 0}, {X: 7, Y: 1}}); err != nil {
		t.Fatal(err)
	}
	h.reg.Materialize()
	for _, img := range st.Views {
		v, _ := h.reg.Get(img.Name)
		if built := view.Built(v); built != img.Incremental {
			t.Fatalf("view %q: result built = %v after Materialize", img.Name, built)
		}
		_, all, total, _, err := v.Page(context.Background(), 0, 0)
		if err != nil {
			t.Fatal(err)
		}
		_, want, _, err := v.Result(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if total != len(want) || !rowsEqual(all, want) {
			t.Fatalf("view %q: Page serves %v (total %d), Result %v", img.Name, all, total, want)
		}
		for i := 1; i < len(all); i++ {
			if slices.Compare(all[i-1], all[i]) >= 0 {
				t.Fatalf("view %q: rows %v then %v out of order", img.Name, all[i-1], all[i])
			}
		}
	}
	if v, _ := h.reg.Get("vp"); v.Rows() != 5 {
		t.Fatalf("vp holds %d rows, want its 2 restored and 3 new", v.Rows())
	}
}

// TestConcurrentReadersDuringMaintenance exercises concurrent view reads
// while mutations stream in: two readers take the whole result, two read
// pages at random offsets and limits. Run with -race.
func TestConcurrentReadersDuringMaintenance(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	h := newHarness()
	if _, err := h.cat.RegisterPairs("R", randomPairs(rng, 80, 20)); err != nil {
		t.Fatal(err)
	}
	if _, err := h.cat.RegisterPairs("S", randomPairs(rng, 80, 20)); err != nil {
		t.Fatal(err)
	}
	if _, err := h.reg.Register(context.Background(), "vp", "VP(x, z) :- R(x, y), S(y, z)"); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(rng *rand.Rand) {
			defer wg.Done()
			v, _ := h.reg.Get("vp")
			for {
				select {
				case <-stop:
					return
				default:
				}
				var err error
				if g%2 == 0 {
					_, _, _, err = v.Result(context.Background())
				} else {
					var page [][]int64
					var total int
					offset, limit := rng.Intn(400), rng.Intn(50)
					_, page, total, _, err = v.Page(context.Background(), offset, limit)
					if want := min(max(total-offset, 0), limit); err == nil && limit > 0 && len(page) != want {
						t.Errorf("page at %d of limit %d holds %d rows of %d", offset, limit, len(page), total)
						return
					}
				}
				if err != nil {
					t.Error(err)
					return
				}
				h.reg.List()
			}
		}(rand.New(rand.NewSource(int64(g))))
	}
	mrng := rand.New(rand.NewSource(17))
	for i := 0; i < 60; i++ {
		if _, err := h.cat.InsertPairs("R", randomPairs(mrng, 3, 20)); err != nil {
			t.Error(err)
			break
		}
		r, _ := h.cat.Get("S")
		ps := r.Pairs()
		if len(ps) > 0 {
			if _, err := h.cat.DeletePairs("S", ps[:1]); err != nil {
				t.Error(err)
				break
			}
		}
	}
	close(stop)
	wg.Wait()
	checkView(t, h, "vp", "VP(x, z) :- R(x, y), S(y, z)", 0)
}

// BenchmarkSmallDelta measures what the serving path pays per write: one
// 32-tuple insert (then its delete, so the state is stationary) folded into
// a chain view and a star view — deltas below kernelDeltaMin, so all of it
// is the shared variable-at-a-time extension plus the counted store.
func BenchmarkSmallDelta(b *testing.B) {
	for _, bc := range []struct{ name, src string }{
		{"chain", "VC(a, d) :- R(a, b), S(b, c), T(c, d)"},
		{"star", "VS(a, b, c) :- R(a, y), S(b, y), T(c, y)"},
	} {
		b.Run(bc.name, func(b *testing.B) {
			rng := rand.New(rand.NewSource(21))
			h := newHarness()
			const domain = 400
			for _, name := range []string{"R", "S", "T"} {
				if _, err := h.cat.RegisterPairs(name, randomPairs(rng, 2500, domain)); err != nil {
					b.Fatal(err)
				}
			}
			if _, err := h.reg.Register(context.Background(), "v", bc.src); err != nil {
				b.Fatal(err)
			}
			batches := make([][]relation.Pair, 16)
			for i := range batches {
				batches[i] = randomPairs(rng, 32, domain)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rel := []string{"R", "S", "T"}[i%3]
				m, err := h.cat.InsertPairs(rel, batches[i%len(batches)])
				if err != nil {
					b.Fatal(err)
				}
				if _, err := h.cat.DeletePairs(rel, m.Added); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
