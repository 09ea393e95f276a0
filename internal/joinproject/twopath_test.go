package joinproject

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"sync/atomic"
	"testing"
	"testing/quick"

	"repro/internal/relation"
	"repro/internal/wcoj"
)

func rel(name string, ps ...[2]int32) *relation.Relation {
	pairs := make([]relation.Pair, len(ps))
	for i, p := range ps {
		pairs[i] = relation.Pair{X: p[0], Y: p[1]}
	}
	return relation.FromPairs(name, pairs)
}

func randomRel(rng *rand.Rand, name string, n, xdom, ydom int) *relation.Relation {
	ps := make([]relation.Pair, n)
	for i := range ps {
		ps[i] = relation.Pair{X: int32(rng.Intn(xdom)), Y: int32(rng.Intn(ydom))}
	}
	return relation.FromPairs(name, ps)
}

// skewedRel produces Zipf-ish degree skew so both light and heavy paths of
// Algorithm 1 are exercised.
func skewedRel(rng *rand.Rand, name string, n, xdom, ydom int) *relation.Relation {
	ps := make([]relation.Pair, n)
	for i := range ps {
		x := int32(rng.Intn(xdom))
		if rng.Intn(3) == 0 {
			x = int32(rng.Intn(3)) // a few very heavy x values
		}
		y := int32(rng.Intn(ydom))
		if rng.Intn(3) == 0 {
			y = int32(rng.Intn(3)) // a few very heavy y values
		}
		ps[i] = relation.Pair{X: x, Y: y}
	}
	return relation.FromPairs(name, ps)
}

func pairsToMap(ps [][2]int32) map[[2]int32]bool {
	m := make(map[[2]int32]bool, len(ps))
	for _, p := range ps {
		m[p] = true
	}
	return m
}

// pairsToCounts is pairsToMap in countsToMap's shape (every count 1), so set
// and counting entry points share one checker.
func pairsToCounts(ps [][2]int32) map[[2]int32]int32 {
	m := make(map[[2]int32]int32, len(ps))
	for _, p := range ps {
		m[p] = 1
	}
	return m
}

// groupPairs is TwoPathGroups flattened to value pairs.
func groupPairs(r, s *relation.Relation, opt Options, mm bool) [][2]int32 {
	return TwoPathGroups(r, s, opt, mm).Pairs()
}

func countsToMap(pc []PairCount) map[[2]int32]int32 {
	m := make(map[[2]int32]int32, len(pc))
	for _, p := range pc {
		m[[2]int32{p.X, p.Z}] += p.Count
	}
	return m
}

func bruteCounts(r, s *relation.Relation) map[[2]int32]int32 {
	out := map[[2]int32]int32{}
	for _, rp := range r.Pairs() {
		for _, sp := range s.Pairs() {
			if rp.Y == sp.Y {
				out[[2]int32{rp.X, sp.X}]++
			}
		}
	}
	return out
}

func checkPairsEqual(t *testing.T, got [][2]int32, want map[[2]int32]int32, label string) {
	t.Helper()
	gm := pairsToMap(got)
	if len(gm) != len(got) {
		t.Fatalf("%s: output contains duplicates (%d pairs, %d distinct)", label, len(got), len(gm))
	}
	if len(gm) != len(want) {
		t.Fatalf("%s: %d pairs, want %d", label, len(gm), len(want))
	}
	for p := range want {
		if !gm[p] {
			t.Fatalf("%s: missing pair %v", label, p)
		}
	}
}

func checkCountsEqual(t *testing.T, got []PairCount, want map[[2]int32]int32, label string) {
	t.Helper()
	gm := countsToMap(got)
	if len(gm) != len(want) {
		t.Fatalf("%s: %d pairs, want %d", label, len(gm), len(want))
	}
	seen := map[[2]int32]bool{}
	for _, p := range got {
		key := [2]int32{p.X, p.Z}
		if seen[key] {
			t.Fatalf("%s: pair %v emitted twice", label, key)
		}
		seen[key] = true
	}
	for p, c := range want {
		if gm[p] != c {
			t.Fatalf("%s: pair %v count = %d, want %d", label, p, gm[p], c)
		}
	}
}

func TestTwoPathSmall(t *testing.T) {
	r := rel("R", [2]int32{1, 10}, [2]int32{2, 10}, [2]int32{3, 11})
	s := rel("S", [2]int32{5, 10}, [2]int32{6, 11}, [2]int32{6, 12})
	want := bruteCounts(r, s)
	checkPairsEqual(t, groupPairs(r, s, Options{Delta1: 1, Delta2: 1}, true), want, "MM d=1")
	checkPairsEqual(t, groupPairs(r, s, Options{Delta1: 100, Delta2: 100}, true), want, "MM all-light")
	checkCountsEqual(t, TwoPathCounts(r, s, Options{Delta1: 1, Delta2: 1}, true), want, "MM counts")
}

func TestTwoPathAcrossThresholds(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	r := skewedRel(rng, "R", 400, 40, 30)
	s := skewedRel(rng, "S", 400, 40, 30)
	want := bruteCounts(r, s)
	for _, d1 := range []int{1, 2, 5, 50, 1000} {
		for _, d2 := range []int{1, 3, 10, 1000} {
			opt := Options{Delta1: d1, Delta2: d2, Workers: 1}
			checkPairsEqual(t, groupPairs(r, s, opt, true), want, "MM")
			checkCountsEqual(t, TwoPathCounts(r, s, opt, true), want, "MMCounts")
			checkPairsEqual(t, groupPairs(r, s, opt, false), want, "NonMM")
			checkCountsEqual(t, TwoPathCounts(r, s, opt, false), want, "NonMMCounts")
		}
	}
}

func TestTwoPathParallelMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	r := skewedRel(rng, "R", 1500, 120, 60)
	s := skewedRel(rng, "S", 1500, 120, 60)
	want := bruteCounts(r, s)
	for _, w := range []int{1, 2, 4, 9} {
		opt := Options{Delta1: 3, Delta2: 4, Workers: w}
		checkPairsEqual(t, groupPairs(r, s, opt, true), want, "MM parallel")
		checkCountsEqual(t, TwoPathCounts(r, s, opt, true), want, "MMCounts parallel")
		checkPairsEqual(t, groupPairs(r, s, opt, false), want, "NonMM parallel")
		checkCountsEqual(t, TwoPathCounts(r, s, opt, false), want, "NonMMCounts parallel")
	}
}

// TestTwoPathStop pins the cooperative-cancellation contract of Options.Stop
// on every two-path entry point: a Stop that trips after a given number of
// polls abandons the remaining scheduling blocks (the index build and each
// worker see the trip at most once), and what was emitted before the trip is a subset of the
// brute-force answer with exact counts — x values are never half-evaluated.
// A nil Stop is the complete answer.
func TestTwoPathStop(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	// ~650 distinct x keys: ten 64-key scheduling blocks.
	r := skewedRel(rng, "R", 3000, 700, 60)
	s := skewedRel(rng, "S", 3000, 700, 60)
	if blocks := r.NumX() / schedBlock; blocks < 8 {
		t.Fatalf("input spans only %d scheduling blocks", blocks)
	}
	pairs := bruteCounts(r, s)
	// The group-by answer as a pair map: (x, 0) → distinct partners of x.
	groups := map[[2]int32]int32{}
	for p := range pairs {
		groups[[2]int32{p[0], 0}]++
	}
	entries := []struct {
		name     string
		counting bool
		want     map[[2]int32]int32
		run      func(Options) map[[2]int32]int32
	}{
		{"MM", false, pairs, func(o Options) map[[2]int32]int32 { return pairsToCounts(groupPairs(r, s, o, true)) }},
		{"MMCounts", true, pairs, func(o Options) map[[2]int32]int32 { return countsToMap(TwoPathCounts(r, s, o, true)) }},
		{"NonMM", false, pairs, func(o Options) map[[2]int32]int32 { return pairsToCounts(groupPairs(r, s, o, false)) }},
		{"NonMMCounts", true, pairs, func(o Options) map[[2]int32]int32 { return countsToMap(TwoPathCounts(r, s, o, false)) }},
		{"GroupBy", true, groups, func(o Options) map[[2]int32]int32 {
			m := map[[2]int32]int32{}
			for _, g := range TwoPathGroupBy(r, s, o) {
				m[[2]int32{g.X, 0}] = int32(g.Distinct)
			}
			return m
		}},
	}
	// tripAfter < 0 means a nil Stop. The last trip count lets a few blocks
	// through so the subset check is not vacuous.
	trips := []int64{-1, 0, 1, 4, 9}
	for _, e := range entries {
		want, counting := e.want, e.counting
		for _, workers := range []int{1, 2} {
			for _, tripAfter := range trips {
				opt := Options{Delta1: 3, Delta2: 4, Workers: workers}
				var polls atomic.Int64
				if tripAfter >= 0 {
					opt.Stop = func() bool { return polls.Add(1) > tripAfter }
				}
				got := e.run(opt)
				label := fmt.Sprintf("%s workers=%d tripAfter=%d", e.name, workers, tripAfter)
				for p, c := range got {
					w, ok := want[p]
					if !ok {
						t.Fatalf("%s: wrong pair %v", label, p)
					}
					if counting && c != w {
						t.Fatalf("%s: pair %v count = %d, want %d", label, p, c, w)
					}
				}
				if tripAfter < 0 {
					if len(got) != len(want) {
						t.Fatalf("%s: %d pairs, want %d", label, len(got), len(want))
					}
					continue
				}
				if len(got) >= len(want) {
					t.Fatalf("%s: %d of %d pairs emitted; want a strict subset", label, len(got), len(want))
				}
				if n := polls.Load(); n > tripAfter+1+int64(workers) {
					t.Fatalf("%s: Stop polled %d times; remaining blocks were visited after the trip", label, n)
				}
				if tripAfter == trips[len(trips)-1] && len(got) == 0 {
					t.Fatalf("%s: nothing emitted before the trip", label)
				}
			}
		}
	}
}

func TestTwoPathSelfJoin(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	r := skewedRel(rng, "R", 600, 50, 25)
	want := bruteCounts(r, r)
	checkCountsEqual(t, TwoPathCounts(r, r, Options{Delta1: 2, Delta2: 3}, true), want, "self join")
}

func TestTwoPathDefaults(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	r := skewedRel(rng, "R", 500, 60, 30)
	s := skewedRel(rng, "S", 500, 60, 30)
	want := bruteCounts(r, s)
	// Zero options select heuristic thresholds; result must be unchanged.
	checkPairsEqual(t, groupPairs(r, s, Options{}, true), want, "default thresholds")
	var size int64
	for _, g := range TwoPathGroupBy(r, s, Options{}) {
		size += g.Distinct
	}
	if size != int64(len(want)) {
		t.Fatalf("group-by counts sum to %d, want %d", size, len(want))
	}
}

func TestTwoPathEmptyAndDisjoint(t *testing.T) {
	empty := rel("E")
	r := rel("R", [2]int32{1, 1})
	if got := groupPairs(empty, r, Options{Delta1: 1, Delta2: 1}, true); len(got) != 0 {
		t.Fatalf("join with empty = %v", got)
	}
	disjoint := rel("D", [2]int32{9, 99})
	if got := groupPairs(r, disjoint, Options{Delta1: 1, Delta2: 1}, true); len(got) != 0 {
		t.Fatalf("disjoint join = %v", got)
	}
}

// TestTwoPathVisitCounts checks TwoPathCounts' witness counts, with the
// heavy residual by matrix product and by list intersection.
func TestTwoPathVisitCounts(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	r := skewedRel(rng, "R", 300, 30, 20)
	s := skewedRel(rng, "S", 300, 30, 20)
	want := bruteCounts(r, s)
	for _, mm := range []bool{true, false} {
		checkCountsEqual(t, TwoPathCounts(r, s, Options{Delta1: 2, Delta2: 2, Workers: 1}, mm), want, fmt.Sprintf("mm=%v", mm))
	}
}

// TestPaperExample2 reconstructs the matrix step of Example 2: with all
// values heavy, the witness counts must match the matrix product M given in
// the paper: M = [[1,2,1],[2,3,2],[2,2,3]] over x,z ∈ {4,5,6}.
func TestPaperExample2(t *testing.T) {
	// M1 (x rows 4..6 over y cols 4..6) and M2 (y rows 4..6 over z cols 4..6)
	// from the paper.
	r := rel("R",
		[2]int32{4, 4}, [2]int32{4, 6},
		[2]int32{5, 4}, [2]int32{5, 5}, [2]int32{5, 6},
		[2]int32{6, 4}, [2]int32{6, 5},
	)
	s := rel("S", // S(z,y) such that M2[y][z] = 1
		[2]int32{4, 4}, [2]int32{5, 4},
		[2]int32{4, 5}, [2]int32{5, 5}, [2]int32{6, 5},
		[2]int32{5, 6}, [2]int32{6, 6},
	)
	// Note: the paper prints M[6][6] = 3, but row x=6 of M1 is (1,1,0) and
	// column z=6 of M2 is (0,1,1), whose dot product is 1 — a typo in the
	// paper's figure. Every other entry matches the printed M.
	wantM := map[[2]int32]int32{
		{4, 4}: 1, {4, 5}: 2, {4, 6}: 1,
		{5, 4}: 2, {5, 5}: 3, {5, 6}: 2,
		{6, 4}: 2, {6, 5}: 2, {6, 6}: 1,
	}
	// Δ1 = Δ2 = 1 makes every value heavy (all degrees ≥ 2), so the entire
	// result flows through the matrix product.
	checkCountsEqual(t, TwoPathCounts(r, s, Options{Delta1: 1, Delta2: 1}, true), wantM, "example 2 heavy")
	// The result must be threshold-invariant: all-light evaluation agrees.
	checkCountsEqual(t, TwoPathCounts(r, s, Options{Delta1: 99, Delta2: 99}, true), wantM, "example 2 light")
}

func TestAgainstWCOJOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	r := skewedRel(rng, "R", 800, 70, 40)
	s := skewedRel(rng, "S", 800, 70, 40)
	oracle := wcoj.Project2PathCounts(r, s)
	got := countsToMap(TwoPathCounts(r, s, Options{Delta1: 4, Delta2: 4}, true))
	if len(got) != len(oracle) {
		t.Fatalf("MM %d pairs, WCOJ oracle %d", len(got), len(oracle))
	}
	for p, c := range oracle {
		if got[p] != c {
			t.Fatalf("pair %v: MM count %d, oracle %d", p, got[p], c)
		}
	}
}

func TestEstimateOutputSizeBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(27))
	for trial := 0; trial < 20; trial++ {
		r := skewedRel(rng, "R", 200+rng.Intn(400), 10+rng.Intn(80), 10+rng.Intn(40))
		s := skewedRel(rng, "S", 200+rng.Intn(400), 10+rng.Intn(80), 10+rng.Intn(40))
		est := EstimateOutputSize(r, s)
		outJoin := relation.FullJoinSize(r, s)
		if outJoin == 0 {
			if est != 0 {
				t.Fatalf("estimate %d for empty join", est)
			}
			continue
		}
		if est < 1 || est > outJoin {
			t.Fatalf("estimate %d outside (0, |OUT⋈|=%d]", est, outJoin)
		}
		upper := int64(r.NumX()) * int64(s.NumX())
		if est > upper {
			t.Fatalf("estimate %d above domain product %d", est, upper)
		}
	}
}

func TestHeuristicThresholdsFeasible(t *testing.T) {
	rng := rand.New(rand.NewSource(28))
	for trial := 0; trial < 20; trial++ {
		r := skewedRel(rng, "R", 100+rng.Intn(900), 5+rng.Intn(100), 5+rng.Intn(50))
		s := skewedRel(rng, "S", 100+rng.Intn(900), 5+rng.Intn(100), 5+rng.Intn(50))
		d1, d2 := HeuristicThresholds(r, s)
		n := r.Size()
		if s.Size() > n {
			n = s.Size()
		}
		if d1 < 1 || d2 < 1 || d1 > n || d2 > n {
			t.Fatalf("thresholds (%d, %d) out of [1, %d]", d1, d2, n)
		}
	}
	if d1, d2 := HeuristicThresholds(rel("E"), rel("E")); d1 != 1 || d2 != 1 {
		t.Fatalf("empty thresholds = (%d, %d), want (1, 1)", d1, d2)
	}
}

// Property: MM and NonMM agree with brute force for arbitrary random
// instances and thresholds.
func TestQuickTwoPathMatchesBrute(t *testing.T) {
	f := func(seed int64, d1raw, d2raw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		r := skewedRel(rng, "R", 1+rng.Intn(250), 1+rng.Intn(40), 1+rng.Intn(25))
		s := skewedRel(rng, "S", 1+rng.Intn(250), 1+rng.Intn(40), 1+rng.Intn(25))
		opt := Options{Delta1: 1 + int(d1raw%16), Delta2: 1 + int(d2raw%16), Workers: 2}
		want := bruteCounts(r, s)
		if gm := countsToMap(TwoPathCounts(r, s, opt, true)); len(gm) != len(want) {
			return false
		} else {
			for p, c := range want {
				if gm[p] != c {
					return false
				}
			}
		}
		gm := countsToMap(TwoPathCounts(r, s, opt, false))
		if len(gm) != len(want) {
			return false
		}
		for p, c := range want {
			if gm[p] != c {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// The partition property behind Algorithm 1: with any thresholds, the four
// witness categories both cover and never double count. Verified indirectly
// by exact counts above; here we additionally check that heavy-only
// instances route through the matrix (output still correct when every value
// is heavy).
func TestAllHeavyInstance(t *testing.T) {
	// Complete bipartite K5,5 on both sides: every degree is 5.
	var ps [][2]int32
	for x := int32(0); x < 5; x++ {
		for y := int32(0); y < 5; y++ {
			ps = append(ps, [2]int32{x, y})
		}
	}
	r := rel("R", ps...)
	want := bruteCounts(r, r)
	got := countsToMap(TwoPathCounts(r, r, Options{Delta1: 1, Delta2: 1}, true))
	if len(got) != 25 {
		t.Fatalf("K5,5 self join: %d pairs, want 25", len(got))
	}
	for p, c := range want {
		if got[p] != c || c != 5 {
			t.Fatalf("pair %v count = %d, want 5", p, got[p])
		}
	}
}

func sortPairs(ps [][2]int32) {
	sort.Slice(ps, func(i, j int) bool {
		if ps[i][0] != ps[j][0] {
			return ps[i][0] < ps[j][0]
		}
		return ps[i][1] < ps[j][1]
	})
}

// TestDedupModes runs each light-part dedup the data picks against the
// answer of a hash join: on a narrow z-domain the bitmap rows and the
// stamped ones, and on a z-domain of dedupSortThreshold+1 keys the sort, with
// the heavy residual by matrix product and by list intersection at 1 and 2
// workers. In the wide instance every y below 1024 lists about 1024 z and is
// heavy, z 0–63 also meet the four y 1024–1027 and are heavy, and most x
// list three y, so every witness category occurs.
func TestDedupModes(t *testing.T) {
	rng := rand.New(rand.NewSource(30))
	r := skewedRel(rng, "R", 900, 300, 45)
	s := skewedRel(rng, "S", 900, 2000, 45)
	dense := denseXs(newTwoPathCtxParallel(r, s, 3, 4, 1, nil))
	if !slices.Contains(dense, true) || !slices.Contains(dense, false) {
		t.Fatal("narrow instance lacks bitmap or stamped rows")
	}
	for _, mm := range []bool{true, false} {
		checkPairsEqual(t, groupPairs(r, s, Options{Delta1: 3, Delta2: 4, Workers: 2}, mm), bruteCounts(r, s), fmt.Sprintf("narrow mm=%v", mm))
	}

	const nz = dedupSortThreshold + 1
	sp := make([]relation.Pair, 0, nz+256)
	for z := int32(0); z < nz; z++ {
		sp = append(sp, relation.Pair{X: z, Y: z % 1024})
	}
	for z := int32(0); z < 64; z++ {
		for k := int32(0); k < 4; k++ {
			sp = append(sp, relation.Pair{X: z, Y: 1024 + k})
		}
	}
	var rp []relation.Pair
	for x := int32(0); x < 40; x++ {
		rp = append(rp, relation.Pair{X: x, Y: x * 7 % 1024}, relation.Pair{X: x, Y: 1024 + x%4})
		if x%5 != 0 {
			rp = append(rp, relation.Pair{X: x, Y: (x*13 + 5) % 1024})
		}
	}
	wr, ws := relation.FromPairs("R", rp), relation.FromPairs("S", sp)
	if ws.NumX() <= dedupSortThreshold {
		t.Fatalf("S has %d z keys, want more than %d", ws.NumX(), dedupSortThreshold)
	}
	want := map[[2]int32]int32{}
	for _, p := range rp {
		for _, z := range ws.ByY().Lookup(p.Y) {
			want[[2]int32{p.X, z}] = 1
		}
	}
	for _, mm := range []bool{true, false} {
		for _, workers := range []int{1, 2} {
			label := fmt.Sprintf("|dom z|=%d mm=%v workers=%d", nz, mm, workers)
			g := TwoPathGroups(wr, ws, Options{Delta1: 8, Delta2: 2, Workers: workers}, mm)
			checkPairsEqual(t, g.Pairs(), want, label)
			for i := range g.XKeys {
				if grp := g.ZPos[g.Off[i]:g.Off[i+1]]; !slices.IsSorted(grp) {
					t.Fatalf("%s: sorted group of x=%d not ascending", label, g.XKeys[i])
				}
			}
		}
	}
}

func TestDeterministicOutputSetAcrossWorkers(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	r := skewedRel(rng, "R", 700, 80, 35)
	s := skewedRel(rng, "S", 700, 80, 35)
	base := groupPairs(r, s, Options{Delta1: 3, Delta2: 3, Workers: 1}, true)
	sortPairs(base)
	for _, w := range []int{2, 5} {
		got := groupPairs(r, s, Options{Delta1: 3, Delta2: 3, Workers: w}, true)
		sortPairs(got)
		if len(got) != len(base) {
			t.Fatalf("workers=%d: %d pairs, want %d", w, len(got), len(base))
		}
		for i := range base {
			if got[i] != base[i] {
				t.Fatalf("workers=%d: pair %d = %v, want %v", w, i, got[i], base[i])
			}
		}
	}
}

// denseXs reports, per x position of c's R, whether set semantics builds
// that x's row as a bitmap.
func denseXs(c *twoPathCtx) []bool {
	acc := make([]uint64, (c.sX.NumKeys()+63)/64)
	dense := make([]bool, c.rX.NumKeys())
	for i := range dense {
		dense[i] = c.bitmapRow(c.yPosByX[c.rX.Offset(i):c.rX.Offset(i+1)], acc) != nil
	}
	return dense
}

// checkBitmapGroups requires the groups g to equal the brute force answer
// and every group of a dense x to be ascending. It returns how many groups
// came from the bitmap path.
func checkBitmapGroups(t *testing.T, g Groups, dense []bool, want map[[2]int32]int32, label string) int {
	t.Helper()
	checkPairsEqual(t, g.Pairs(), want, label)
	bitmapRows := 0
	for i := range g.XKeys {
		if !dense[i] {
			continue
		}
		bitmapRows++
		if grp := g.ZPos[g.Off[i]:g.Off[i+1]]; !slices.IsSorted(grp) {
			t.Fatalf("%s: bitmap group of x=%d not ascending: %v", label, g.XKeys[i], grp)
		}
	}
	return bitmapRows
}

// TestTwoPathBitmapRows runs the bitmap light part, with the heavy residual
// by matrix product and by list intersection, at 1, 2 and 4 workers against
// the nested-loop answer, at three threshold settings: all light, all heavy (1, 1), and a mixed one
// under which a heavy x meets a heavy y that has light z partners
// (category 3, the light prefix of a list that is not OR-ed whole).
func TestTwoPathBitmapRows(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	r := skewedRel(rng, "R", 1500, 90, 45)
	s := skewedRel(rng, "S", 1500, 90, 45)
	want := bruteCounts(r, s)
	allLight := Options{}.AllLight(r, s)
	mixed := [2]int{3, 40}
	// The mixed setting must reach category 3 on a bitmap row.
	c := newTwoPathCtxParallel(r, s, mixed[0], mixed[1], 1, nil)
	dense := denseXs(c)
	cat3 := false
	for i := 0; i < c.rX.NumKeys() && !cat3; i++ {
		ys := c.yPosByX[c.rX.Offset(i):c.rX.Offset(i+1)]
		if len(ys) <= mixed[1] || !dense[i] {
			continue
		}
		for _, yp := range ys {
			if yp >= 0 && c.colOf[yp] >= 0 && c.numLight[yp] > 0 {
				cat3 = true
			}
		}
	}
	if !cat3 {
		t.Fatalf("Δ=%v: no bitmap row meets a heavy y with light z", mixed)
	}
	for _, d := range [][2]int{{allLight.Delta1, allLight.Delta2}, {1, 1}, mixed} {
		for _, mm := range []bool{true, false} {
			for _, workers := range []int{1, 2, 4} {
				label := fmt.Sprintf("Δ=%v mm=%v workers=%d", d, mm, workers)
				g := TwoPathGroups(r, s, Options{Delta1: d[0], Delta2: d[1], Workers: workers}, mm)
				if checkBitmapGroups(t, g, dense, want, label) == 0 {
					t.Fatalf("%s: no group took the bitmap path", label)
				}
			}
		}
	}
}

// TestTwoPathBitmapWideDomain: set semantics builds bitmap rows over a z-domain
// of 65 537 keys, 1 025 words with one bit in the last, and the answer is
// exact.
func TestTwoPathBitmapWideDomain(t *testing.T) {
	const nz = 1<<16 + 1
	// S(z, y): every z under y = z mod 8. R(x, y): x reaches y < x+1, so x
	// pairs with every z whose z mod 8 ≤ x.
	sp := make([]relation.Pair, nz)
	for z := range sp {
		sp[z] = relation.Pair{X: int32(z), Y: int32(z % 8)}
	}
	var rp []relation.Pair
	for x := int32(0); x < 3; x++ {
		for y := int32(0); y <= x; y++ {
			rp = append(rp, relation.Pair{X: x, Y: y})
		}
	}
	r, s := relation.FromPairs("R", rp), relation.FromPairs("S", sp)
	want := map[[2]int32]int32{}
	for x := int32(0); x < 3; x++ {
		for z := int32(0); z < nz; z++ {
			if z%8 <= x {
				want[[2]int32{x, z}] = 1
			}
		}
	}
	dense := denseXs(newTwoPathCtxParallel(r, s, 1, 2, 1, nil))
	for _, mm := range []bool{true, false} {
		g := TwoPathGroups(r, s, Options{Delta1: 1, Delta2: 2, Workers: 2}, mm)
		label := fmt.Sprintf("|dom z|=%d mm=%v", nz, mm)
		if n := checkBitmapGroups(t, g, dense, want, label); n != 3 {
			t.Fatalf("%s: %d bitmap rows, want 3", label, n)
		}
	}
}
