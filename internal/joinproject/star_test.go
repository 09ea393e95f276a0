package joinproject

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"

	"repro/internal/relation"
	"repro/internal/wcoj"
)

func tuplesToSet(ts [][]int32) map[string]bool {
	set := make(map[string]bool, len(ts))
	for _, xs := range ts {
		set[fmt.Sprint(xs)] = true
	}
	return set
}

func checkTuplesEqual(t *testing.T, got, want [][]int32, label string) {
	t.Helper()
	gs, ws := tuplesToSet(got), tuplesToSet(want)
	if len(gs) != len(got) {
		t.Fatalf("%s: duplicates in output (%d tuples, %d distinct)", label, len(got), len(gs))
	}
	if len(gs) != len(ws) {
		t.Fatalf("%s: %d tuples, want %d", label, len(gs), len(ws))
	}
	for k := range ws {
		if !gs[k] {
			t.Fatalf("%s: missing tuple", label)
		}
	}
}

func TestStarSmall(t *testing.T) {
	r := rel("R", [2]int32{1, 10}, [2]int32{2, 10})
	s := rel("S", [2]int32{5, 10})
	u := rel("U", [2]int32{7, 10}, [2]int32{8, 10})
	want := wcoj.ProjectStar([]*relation.Relation{r, s, u})
	got := StarMM([]*relation.Relation{r, s, u}, Options{Delta1: 1, Delta2: 1})
	checkTuplesEqual(t, got, want, "star small")
}

func TestStarThresholdSweep(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	rels := []*relation.Relation{
		skewedRel(rng, "R1", 200, 12, 10),
		skewedRel(rng, "R2", 200, 12, 10),
		skewedRel(rng, "R3", 200, 12, 10),
	}
	want := wcoj.ProjectStar(rels)
	for _, d1 := range []int{1, 2, 6, 100} {
		for _, d2 := range []int{1, 3, 100} {
			got := StarMM(rels, Options{Delta1: d1, Delta2: d2, Workers: 1})
			checkTuplesEqual(t, got, want, "star sweep")
			gotN := StarNonMM(rels, Options{Delta1: d1, Delta2: d2, Workers: 1})
			checkTuplesEqual(t, gotN, want, "star nonmm sweep")
		}
	}
}

func TestStarParallel(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	rels := []*relation.Relation{
		skewedRel(rng, "R1", 400, 20, 14),
		skewedRel(rng, "R2", 400, 20, 14),
		skewedRel(rng, "R3", 400, 20, 14),
	}
	want := wcoj.ProjectStar(rels)
	for _, w := range []int{2, 6} {
		got := StarMM(rels, Options{Delta1: 2, Delta2: 2, Workers: w})
		checkTuplesEqual(t, got, want, "star parallel")
	}
}

// TestPaperExample3 mirrors Example 3: a 4-way star whose variables are
// grouped as (x,z) and (p,q) for the matrix step.
func TestPaperExample3(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	rels := []*relation.Relation{
		skewedRel(rng, "R", 150, 8, 6),
		skewedRel(rng, "S", 150, 8, 6),
		skewedRel(rng, "T", 150, 8, 6),
		skewedRel(rng, "U", 150, 8, 6),
	}
	want := wcoj.ProjectStar(rels)
	got := StarMM(rels, Options{Delta1: 2, Delta2: 2})
	checkTuplesEqual(t, got, want, "example 3 star-4")
	if n := StarMMSize(rels, Options{Delta1: 2, Delta2: 2}); n != int64(len(want)) {
		t.Fatalf("StarMMSize = %d, want %d", n, len(want))
	}
}

func TestStarTwoRelationsMatchesTwoPath(t *testing.T) {
	rng := rand.New(rand.NewSource(34))
	r := skewedRel(rng, "R", 300, 25, 15)
	s := skewedRel(rng, "S", 300, 25, 15)
	want := groupPairs(r, s, Options{Delta1: 2, Delta2: 2}, true)
	got := StarMM([]*relation.Relation{r, s}, Options{Delta1: 2, Delta2: 2})
	wantTuples := make([][]int32, len(want))
	for i, p := range want {
		wantTuples[i] = []int32{p[0], p[1]}
	}
	checkTuplesEqual(t, got, wantTuples, "star k=2 vs 2-path")
}

func TestStarEmpty(t *testing.T) {
	if got := StarMM(nil, Options{}); got != nil {
		t.Fatalf("StarMM(nil) = %v", got)
	}
	empty := rel("E")
	r := rel("R", [2]int32{1, 1})
	if got := StarMM([]*relation.Relation{r, empty, r}, Options{Delta1: 1, Delta2: 1}); len(got) != 0 {
		t.Fatalf("star with empty relation = %v", got)
	}
}

func TestStarDefaultThresholds(t *testing.T) {
	rng := rand.New(rand.NewSource(35))
	rels := []*relation.Relation{
		skewedRel(rng, "R1", 250, 15, 12),
		skewedRel(rng, "R2", 250, 15, 12),
		skewedRel(rng, "R3", 250, 15, 12),
	}
	want := wcoj.ProjectStar(rels)
	got := StarMM(rels, Options{})
	checkTuplesEqual(t, got, want, "star defaults")
	d1, d2 := HeuristicStarThresholds(rels, 3)
	if d1 < 1 || d2 < 1 {
		t.Fatalf("star thresholds (%d, %d) below 1", d1, d2)
	}
}

// Property: StarMM equals the WCOJ oracle for random 3-star instances and
// random thresholds.
func TestQuickStarMatchesOracle(t *testing.T) {
	f := func(seed int64, d1raw, d2raw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		rels := []*relation.Relation{
			skewedRel(rng, "R1", 1+rng.Intn(120), 1+rng.Intn(10), 1+rng.Intn(8)),
			skewedRel(rng, "R2", 1+rng.Intn(120), 1+rng.Intn(10), 1+rng.Intn(8)),
			skewedRel(rng, "R3", 1+rng.Intn(120), 1+rng.Intn(10), 1+rng.Intn(8)),
		}
		opt := Options{Delta1: 1 + int(d1raw%8), Delta2: 1 + int(d2raw%8), Workers: 2}
		want := tuplesToSet(wcoj.ProjectStar(rels))
		got := tuplesToSet(StarMM(rels, opt))
		if len(got) != len(want) {
			return false
		}
		for k := range want {
			if !got[k] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// TestStarBothDedupRepresentations runs StarMM and StarNonMM against brute
// force on inputs that land on either side of the bitmap/set switch — few
// head values under many join tuples (bitmap), many head values under few
// join tuples (set), and sparse ids that the positions hide — serially and
// with several workers; under the bitmap the rows must come out sorted.
func TestStarBothDedupRepresentations(t *testing.T) {
	rng := rand.New(rand.NewSource(35))
	sparse := func(r *relation.Relation) *relation.Relation {
		ps := r.Pairs()
		for i := range ps {
			ps[i] = relation.Pair{X: ps[i].X*7_000_003 - 1<<30, Y: ps[i].Y*5_000_011 - 1<<29}
		}
		return relation.FromPairs(r.Name(), ps)
	}
	wide := func(name string) *relation.Relation {
		// 300 x values over 150 join values, two tuples each: the domain
		// product (2.7e7 for k=3) dwarfs the join.
		var ps []relation.Pair
		for x := int32(0); x < 300; x++ {
			ps = append(ps, relation.Pair{X: x, Y: rng.Int31n(150)}, relation.Pair{X: x, Y: rng.Int31n(150)})
		}
		return relation.FromPairs(name, ps)
	}
	cases := []struct {
		name   string
		rels   []*relation.Relation
		bitmap bool
	}{
		{"narrow k=3", []*relation.Relation{skewedRel(rng, "R1", 300, 14, 12), skewedRel(rng, "R2", 300, 14, 12), skewedRel(rng, "R3", 300, 14, 12)}, true},
		{"narrow sparse ids k=3", []*relation.Relation{sparse(skewedRel(rng, "R1", 300, 14, 12)), sparse(skewedRel(rng, "R2", 300, 14, 12)), sparse(skewedRel(rng, "R3", 300, 14, 12))}, true},
		{"narrow k=4", []*relation.Relation{skewedRel(rng, "R1", 150, 8, 6), skewedRel(rng, "R2", 150, 8, 6), skewedRel(rng, "R3", 150, 8, 6), skewedRel(rng, "R4", 150, 8, 6)}, true},
		{"wide k=3", []*relation.Relation{wide("W1"), wide("W2"), wide("W3")}, false},
		{"wide sparse ids k=3", []*relation.Relation{sparse(wide("W1")), sparse(wide("W2")), sparse(wide("W3"))}, false},
		{"wide k=2 (the product of two domains is small again)", []*relation.Relation{wide("W1"), wide("W2")}, true},
	}
	for _, tc := range cases {
		if got := newStarCtx(tc.rels, 2, 2).newDedup().bitmap != nil; got != tc.bitmap {
			t.Fatalf("%s: bitmap dedup = %v, want %v", tc.name, got, tc.bitmap)
		}
		want := wcoj.ProjectStar(tc.rels)
		for _, workers := range []int{1, 2, 7} {
			for _, d := range [][2]int{{1, 1}, {2, 3}, {1000, 1000}} {
				opt := Options{Delta1: d[0], Delta2: d[1], Workers: workers}
				mm, nonmm := StarMM(tc.rels, opt), StarNonMM(tc.rels, opt)
				checkTuplesEqual(t, mm, want, tc.name+" StarMM")
				checkTuplesEqual(t, nonmm, want, tc.name+" StarNonMM")
				// The bitmap is read out in head order: sorted, so the same
				// rows in the same order for every worker count.
				if tc.bitmap && (!slices.IsSortedFunc(mm, slices.Compare[[]int32]) || !slices.IsSortedFunc(nonmm, slices.Compare[[]int32])) {
					t.Fatalf("%s workers=%d Δ=%v: bitmap rows out of head order", tc.name, workers, d)
				}
				if n := StarMMSize(tc.rels, opt); n != int64(len(want)) {
					t.Fatalf("%s: StarMMSize = %d, want %d", tc.name, n, len(want))
				}
			}
		}
	}
}

// TestStarDedup drives both representations of the star's tuple set — the
// mixed-radix bitmap (small domain product, many join tuples) and the
// sharded position-tuple set (everything else) — through the same script
// from eight goroutines: the bitmap marks every tuple and reads the set out
// afterwards, once each and in head order; the hash set reports each tuple
// new exactly once.
func TestStarDedup(t *testing.T) {
	domains := []int{7, 5, 9}
	cases := []struct {
		name     string
		domains  []int
		joinSize float64
		bitmap   bool
	}{
		{"bitmap", domains, 1e6, true},
		{"bitmap at the bound", domains, 315.0 / bitmapBitsPerJoinTuple, true},
		{"set below the bound", domains, 314.0 / bitmapBitsPerJoinTuple, false},
		{"set for an empty join", domains, 0, false},
		{"set above the cap", []int{1 << 9, 1 << 9, 1<<9 + 1}, 1e18, false},
		{"set on 64-bit overflow", []int{1 << 22, 1 << 22, 1 << 22}, 1e18, false},
	}
	// The script: every (a, b, c) with c even, offered by each goroutine in
	// its own order.
	var want [][3]int32
	for a := int32(0); a < 7; a++ {
		for b := int32(0); b < 5; b++ {
			for c := int32(0); c < 9; c += 2 {
				want = append(want, [3]int32{a, b, c})
			}
		}
	}
	for _, tc := range cases {
		d := newStarDedup(tc.domains, tc.joinSize)
		if (d.bitmap != nil) != tc.bitmap {
			t.Fatalf("%s: bitmap = %v, want %v", tc.name, d.bitmap != nil, tc.bitmap)
		}
		var fresh atomic.Int64
		var wg sync.WaitGroup
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				ps := make([]int32, 3)
				for _, i := range rand.New(rand.NewSource(int64(g))).Perm(len(want)) {
					copy(ps, want[i][:])
					if d.bitmap != nil {
						d.mark(ps, nil)
					} else if d.insert(ps) {
						fresh.Add(1)
					}
				}
			}()
		}
		wg.Wait()
		if d.bitmap == nil {
			if fresh.Load() != int64(len(want)) {
				t.Fatalf("%s: %d tuples reported new, want %d", tc.name, fresh.Load(), len(want))
			}
			if d.insert([]int32{6, 4, 8}) {
				t.Fatalf("%s: present tuple reported new", tc.name)
			}
			if !d.insert([]int32{6, 4, 7}) {
				t.Fatalf("%s: absent tuple reported present", tc.name)
			}
			continue
		}
		var got [][3]int32
		d.each(func(ps []int32) { got = append(got, [3]int32{ps[0], ps[1], ps[2]}) })
		if !slices.Equal(got, want) {
			t.Fatalf("%s: bitmap reads out %v, want %v", tc.name, got, want)
		}
		if n := d.count(); n != int64(len(want)) {
			t.Fatalf("%s: bitmap counts %d tuples, want %d", tc.name, n, len(want))
		}
	}
}

func TestCrossSegmentedCoversExactlyNotAllHeavy(t *testing.T) {
	// lists with explicit light/heavy split: verify the first-light-position
	// decomposition enumerates each not-all-heavy combo exactly once.
	light := [][]int32{{1}, {10}, {100}}
	heavy := [][]int32{{2, 3}, {20}, {200}}
	full := [][]int32{{1, 2, 3}, {10, 20}, {100, 200}}
	seen := map[[3]int32]int{}
	xs := make([]int32, 3)
	for p := 0; p < 3; p++ {
		if len(light[p]) == 0 {
			continue
		}
		crossSegmented(heavy, light, full, xs, 0, p, func() {
			seen[[3]int32{xs[0], xs[1], xs[2]}]++
		})
	}
	total := 0
	for _, l := range full {
		if total == 0 {
			total = len(l)
		} else {
			total *= len(l)
		}
	}
	allHeavy := len(heavy[0]) * len(heavy[1]) * len(heavy[2])
	if len(seen) != total-allHeavy {
		t.Fatalf("decomposition covered %d combos, want %d", len(seen), total-allHeavy)
	}
	for combo, n := range seen {
		if n != 1 {
			t.Fatalf("combo %v enumerated %d times", combo, n)
		}
	}
	sort.Strings(nil) // keep sort import for symmetry with other tests
}

// rowMixArms builds a k-arm star over 40 common join values: arms 0..k−2
// over small x domains (5, 3, 4 keys, so a prefix's first bit is rarely
// word-aligned), x drawn skewed so that degrees straddle Δ2, and a last arm
// over lastD keys whose list is long enough for a bitmap row (≥ 2·w
// entries, w = ⌈lastD/64⌉) at even y and too short for one at odd y. Every
// arm also holds its whole x domain under a join value of its own, so the
// domains are exact. wideFirst adds that many more x values to arm 0's
// private join value, which blows up the head domain but not the join.
func rowMixArms(rng *rand.Rand, k, lastD, wideFirst int) []*relation.Relation {
	const ny = 40
	prefixD := []int{5, 3, 4}
	rels := make([]*relation.Relation, k)
	for j := range rels {
		d := lastD
		if j < k-1 {
			d = prefixD[j]
		}
		w := (d + 63) / 64
		var ps []relation.Pair
		for y := int32(0); y < ny; y++ {
			n := 1 + rng.Intn(min(d, 2*w-1))
			if j == k-1 && y%2 == 0 && d >= 2*w {
				n = 2*w + rng.Intn(d-2*w+1)
			} else if j < k-1 {
				n = 1 + rng.Intn(d)
			}
			seen := map[int32]bool{}
			for len(seen) < n {
				// Skewed: small x values are drawn far more often.
				seen[int32(rng.Intn(rng.Intn(d)+1))] = true
				if rng.Intn(4) == 0 {
					seen[int32(rng.Intn(d))] = true
				}
			}
			for x := range seen {
				ps = append(ps, relation.Pair{X: x, Y: y})
			}
		}
		if j == 0 {
			d += wideFirst
		}
		for x := int32(0); x < int32(d); x++ {
			ps = append(ps, relation.Pair{X: x, Y: int32(1000 + j)})
		}
		rels[j] = relation.FromPairs(fmt.Sprintf("R%d", j), ps)
	}
	return rels
}

// TestStarRowsMatchOracle checks the bitmap tuple set's row arm — a y whose
// last-arm list is long ORs it as one shifted row per prefix of the other
// arms — against the WCOJ oracle: k = 2, 3, 4, last-arm domains on both
// sides of a word boundary (so rows start mid-word and spill into the next
// word), all-light, all-heavy and a mixed Δ that reaches both the
// segmented enumeration and the matrix step, 1, 2 and 4 workers, rows and
// per-tuple marks in the same evaluation, and one head domain large enough
// for the hash shards.
func TestStarRowsMatchOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(56))
	for _, k := range []int{2, 3, 4} {
		for _, lastD := range []int{1, 63, 64, 65, 130} {
			for _, wide := range []int{0, 5000} {
				if wide > 0 && lastD != 130 {
					continue
				}
				rels := rowMixArms(rng, k, lastD, wide)
				name := fmt.Sprintf("k=%d D=%d wide=%d", k, lastD, wide)
				want := wcoj.ProjectStar(rels)
				bitmap := newStarCtx(rels, 1, 1).newDedup().bitmap != nil
				if bitmap != (wide == 0) {
					t.Fatalf("%s: bitmap tuple set = %v", name, bitmap)
				}
				mixed := [2]int{2, 6}
				c := newStarCtx(rels, mixed[0], mixed[1])
				segmented, heavy := false, 0
				for i := range c.ys {
					segmented = segmented || c.yHeavyCount[i] >= 2
				}
				c.heavyProduct(1, func([]int32, []uint64) { heavy++ })
				// At k = 2 a one-key last arm is light at every y, so no y
				// is heavy in two arms.
				if (!segmented || heavy == 0) && !(k == 2 && lastD == 1) {
					t.Fatalf("%s: Δ=%v reaches segmented=%v, %d matrix tuples", name, mixed, segmented, heavy)
				}
				if c.buildLastRows(); bitmap && lastD > 1 {
					rows := 0
					for _, at := range c.lastRowAt {
						if at >= 0 {
							rows++
						}
					}
					if rows == 0 || rows == len(c.ys) {
						t.Fatalf("%s: %d of %d join values have a row, want a mix", name, rows, len(c.ys))
					}
				}
				allLight := 0
				for _, r := range rels {
					allLight = max(allLight, r.Size()+1)
				}
				for _, d := range [][2]int{{allLight, allLight}, {1, 1}, mixed} {
					for _, workers := range []int{1, 2, 4} {
						opt := Options{Delta1: d[0], Delta2: d[1], Workers: workers}
						label := fmt.Sprintf("%s Δ=%v workers=%d", name, d, workers)
						mm, nonmm := StarMM(rels, opt), StarNonMM(rels, opt)
						checkTuplesEqual(t, mm, want, label+" StarMM")
						checkTuplesEqual(t, nonmm, want, label+" StarNonMM")
						if bitmap && (!slices.IsSortedFunc(mm, slices.Compare[[]int32]) || !slices.IsSortedFunc(nonmm, slices.Compare[[]int32])) {
							t.Fatalf("%s: bitmap rows out of head order", label)
						}
						if n := StarMMSize(rels, opt); n != int64(len(want)) {
							t.Fatalf("%s: StarMMSize = %d, want %d", label, n, len(want))
						}
					}
				}
			}
		}
	}
}
