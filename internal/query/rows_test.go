package query

import (
	"context"
	"errors"
	"runtime"
	"testing"

	"repro/internal/govern"
	"repro/internal/relation"
)

// executeUnderBudget runs src under a byte budget and returns the error and
// the bytes the evaluation allocated (compilation excluded).
func executeUnderBudget(t *testing.T, src string, rels map[string]*relation.Relation, maxBytes int64) (error, uint64) {
	t.Helper()
	p, err := Prepare(src, MapResolver(rels))
	if err != nil {
		t.Fatalf("Prepare(%q): %v", src, err)
	}
	ctx := govern.WithBudget(context.Background(), govern.New(maxBytes, 0))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err = p.Execute(ctx, ExecOptions{Workers: 1})
	runtime.ReadMemStats(&after)
	return err, after.TotalAlloc - before.TotalAlloc
}

// pairsOf builds a relation of n tuples, the i-th being at(i).
func pairsOf(name string, n int, at func(i int32) (x, y int32)) *relation.Relation {
	ps := make([]relation.Pair, n)
	for i := range ps {
		ps[i].X, ps[i].Y = at(int32(i))
	}
	return relation.FromPairs(name, ps)
}

// TestBudgetRefusesBeforeAllocating: a budget exists to stop a result that
// does not fit, so it must trip while the memory is still unspent — at both
// places a row set's size is known, or watched, before it is complete.
func TestBudgetRefusesBeforeAllocating(t *testing.T) {
	const budget = 1 << 20
	const n = 1500
	column := func(i int32) (int32, int32) { return i, 0 }
	cases := []struct {
		name, src string
		rels      map[string]*relation.Relation
	}{
		// n × n head pairs from two components.
		{"cross product", "Q(x, z) :- R(x, y), S(z, w)", map[string]*relation.Relation{
			"R": pairsOf("R", n, column),
			"S": pairsOf("S", n, column),
		}},
		// A bowtie with a full head: n triangles (xᵢ, yᵢ, 0) and n triangles
		// (0, uᵢ, vᵢ) meet in the one shared vertex, so two n-row bags join
		// into n² rows.
		{"bag join", "Q(x, y, z, u, v) :- R(x, y), S(y, z), T(z, x), U(z, u), V(u, v), W(v, z)", map[string]*relation.Relation{
			"R": pairsOf("R", n, func(i int32) (int32, int32) { return i, i }),
			"S": pairsOf("S", n, column),
			"T": pairsOf("T", n, func(i int32) (int32, int32) { return 0, i }),
			"U": pairsOf("U", n, func(i int32) (int32, int32) { return 0, i }),
			"V": pairsOf("V", n, func(i int32) (int32, int32) { return i, i }),
			"W": pairsOf("W", n, column),
		}},
	}
	for _, tc := range cases {
		err, spent := executeUnderBudget(t, tc.src, tc.rels, budget)
		if !errors.Is(err, govern.ErrBudgetExceeded) {
			t.Fatalf("%s: err = %v, want ErrBudgetExceeded", tc.name, err)
		}
		if spent > 4*budget {
			t.Errorf("%s: allocated %d bytes before refusing a %d-byte budget", tc.name, spent, budget)
		}
	}
}

// TestExecuteRowPathDoesNotBoxRows pins the row path's allocation shape: a
// two-path producing 10 000 rows materializes them as views into a few
// arena chunks, not as one object (or three) per row.
func TestExecuteRowPathDoesNotBoxRows(t *testing.T) {
	var rs, ss []relation.Pair
	for x := int32(0); x < 100; x++ {
		for y := int32(0); y < 10; y++ {
			rs = append(rs, relation.Pair{X: x, Y: y})
			ss = append(ss, relation.Pair{X: y, Y: x})
		}
	}
	rels := map[string]*relation.Relation{"R": relation.FromPairs("R", rs), "S": relation.FromPairs("S", ss)}
	p, err := Prepare("Q(x, z) :- R(x, y), S(y, z)", MapResolver(rels))
	if err != nil {
		t.Fatal(err)
	}
	rows := 0
	allocs := testing.AllocsPerRun(5, func() {
		res, err := p.Execute(context.Background(), ExecOptions{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		rows = len(res.Tuples)
	})
	if rows < 10000 {
		t.Fatalf("query produced %d rows; the pin needs at least 10 000", rows)
	}
	if allocs >= float64(rows)/8 {
		t.Fatalf("%v allocations for %d rows; want fewer than one per 8 rows", allocs, rows)
	}
	t.Logf("%v allocations for %d rows", allocs, rows)
}

// TestRowProducersWriteExactBlocks pins the exact-block rule: a producer
// that knows its row count makes the same few allocations for 10 rows as
// for 100 000, and spends within 5 % of one header per row plus the values
// — no doubling chunks, no second copy.
func TestRowProducersWriteExactBlocks(t *testing.T) {
	plain := func(n, k int) [][]int32 {
		rows := make([][]int32, n)
		for i := range rows {
			rows[i] = make([]int32, k)
			for j := range rows[i] {
				rows[i][j] = int32(i*k + j)
			}
		}
		return rows
	}
	head := &HeadLayout{Vars: []int{0, 1, 2}, Pos: []int{2, 0, 1}, CountIdx: -1}
	cols := []int{1, 2, 0}
	const small, large = 10, 100_000
	producers := []struct {
		name      string
		valueSize int // bytes per value of the produced rows
		k         int // columns of the produced rows
		run       func(n int) func()
	}{
		{"HeadLayout.Project", 8, 3, func(n int) func() {
			rows := plain(n, 3)
			return func() { head.Project(cols, rows) }
		}},
		{"crossRows", 4, 3, func(n int) func() {
			a, b := plain(n/10, 2), plain(10, 1)
			return func() { crossRows(a, b) }
		}},
		{"columnRows", 4, 1, func(n int) func() {
			return func() { columnRows(n, func(i int) int32 { return int32(i) }) }
		}},
	}
	for _, p := range producers {
		few := testing.AllocsPerRun(5, p.run(small))
		many := testing.AllocsPerRun(2, p.run(large))
		if few != many {
			t.Errorf("%s: %v allocations for %d rows but %v for %d; want the same count", p.name, few, small, many, large)
		}
		run := p.run(large)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		run()
		runtime.ReadMemStats(&after)
		spent := float64(after.TotalAlloc - before.TotalAlloc)
		exact := float64(large * (24 + p.valueSize*p.k))
		if spent > 1.05*exact || spent < exact {
			t.Errorf("%s: %d rows allocated %.0f bytes; want within 5%% of %.0f", p.name, large, spent, exact)
		}
		t.Logf("%s: %v allocations, %.0f bytes for %d rows", p.name, many, spent, large)
	}
}
