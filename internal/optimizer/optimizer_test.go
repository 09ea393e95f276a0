package optimizer

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/dataset"
	"repro/internal/joinproject"
	"repro/internal/relation"
)

func randomRel(rng *rand.Rand, name string, n, xdom, ydom int) *relation.Relation {
	ps := make([]relation.Pair, n)
	for i := range ps {
		ps[i] = relation.Pair{X: int32(rng.Intn(xdom)), Y: int32(rng.Intn(ydom))}
	}
	return relation.FromPairs(name, ps)
}

func TestCDF(t *testing.T) {
	degs := []int32{5, 1, 3, 1, 9}
	w := []float64{50, 10, 30, 10, 90}
	c := buildCDF(degs, w)
	cases := []struct {
		delta int
		want  float64
	}{
		{0, 0}, {1, 20}, {2, 20}, {3, 50}, {5, 100}, {9, 190}, {100, 190},
	}
	for _, cs := range cases {
		if got := c.sumUpTo(cs.delta); got != cs.want {
			t.Errorf("sumUpTo(%d) = %v, want %v", cs.delta, got, cs.want)
		}
	}
	if c.total() != 190 {
		t.Fatalf("total = %v, want 190", c.total())
	}
	if c.countAbove(3) != 2 {
		t.Fatalf("countAbove(3) = %d, want 2", c.countAbove(3))
	}
	if c.countAbove(0) != 5 || c.countAbove(9) != 0 {
		t.Fatal("countAbove bounds wrong")
	}
}

func TestCalibrateConstants(t *testing.T) {
	ts, tm, ti := CalibrateConstants()
	for name, v := range map[string]float64{"Ts": ts, "Tm": tm, "TI": ti} {
		if v < 0.05 || v > 1000 {
			t.Fatalf("%s = %v outside sane range", name, v)
		}
	}
	// Second call must return identical cached values.
	ts2, tm2, ti2 := CalibrateConstants()
	if ts != ts2 || tm != tm2 || ti != ti2 {
		t.Fatal("constants not cached")
	}
}

func TestBuildIndexesAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	r := randomRel(rng, "R", 300, 30, 20)
	s := randomRel(rng, "S", 300, 30, 20)
	ix := BuildIndexes(r, s)

	for _, delta := range []int{0, 1, 2, 5, 100} {
		// Brute-force sum(x_δ).
		var want float64
		for i := 0; i < r.ByX().NumKeys(); i++ {
			if r.ByX().Degree(i) <= delta {
				for _, b := range r.ByX().List(i) {
					want += float64(len(s.ByY().Lookup(b)))
				}
			}
		}
		if got := ix.sumX.sumUpTo(delta); got != want {
			t.Fatalf("sum(x_%d) = %v, want %v", delta, got, want)
		}
		// Brute-force sum(y_δ) keyed on S-degree.
		want = 0
		for i := 0; i < s.ByY().NumKeys(); i++ {
			dS := s.ByY().Degree(i)
			if dS <= delta {
				dR := len(r.ByY().Lookup(s.ByY().Key(i)))
				want += float64(dR * dS)
			}
		}
		if got := ix.sumY.sumUpTo(delta); got != want {
			t.Fatalf("sum(y_%d) = %v, want %v", delta, got, want)
		}
		// count(x_δ).
		wantCnt := 0
		for i := 0; i < r.ByX().NumKeys(); i++ {
			if r.ByX().Degree(i) > delta {
				wantCnt++
			}
		}
		if got := ix.countX.countAbove(delta); got != wantCnt {
			t.Fatalf("countX above %d = %d, want %d", delta, got, wantCnt)
		}
	}
}

func TestChooseFallsBackOnSparse(t *testing.T) {
	// RoadNet-shaped data: tiny degrees, |OUT⋈| well under 20N.
	r, _ := dataset.ByName("RoadNet", 0.3)
	o := New()
	dec := o.PlanTwoPath(r, r, joinproject.Options{Workers: 1}, "")
	if !dec.UseWCOJ() {
		t.Fatalf("sparse instance should fall back to WCOJ (outJoin=%d, N=%d)", dec.OutJoin, r.Size())
	}
}

func TestChoosePartitionsOnDense(t *testing.T) {
	r, _ := dataset.ByName("Image", 0.4)
	o := New()
	dec := o.PlanTwoPath(r, r, joinproject.Options{Workers: 1}, "")
	if dec.UseWCOJ() {
		t.Fatalf("dense instance should not fall back (outJoin=%d, N=%d)", dec.OutJoin, r.Size())
	}
	if dec.Delta1 < 1 || dec.Delta2 < 1 {
		t.Fatalf("invalid thresholds (%d, %d)", dec.Delta1, dec.Delta2)
	}
	if dec.Delta1 > r.Size() || dec.Delta2 > r.Size() {
		t.Fatalf("thresholds (%d, %d) exceed N=%d", dec.Delta1, dec.Delta2, r.Size())
	}
	if dec.PredictedCost <= 0 {
		t.Fatal("predicted cost should be positive")
	}
}

func TestChosenThresholdsNearGridOptimum(t *testing.T) {
	// The Algorithm-3 descent should land within a modest factor of the best
	// cost over an exhaustive power-of-two grid. The constants are pinned, so
	// the instance plans MM on every runner.
	r, _ := dataset.ByName("Jokes", 0.2)
	o := NewWithConstants(Constants{Ts: 0.5, Tm: 6, TI: 4})
	dec := o.PlanTwoPath(r, r, joinproject.Options{Workers: 1}, "")
	if dec.UseWCOJ() {
		t.Fatalf("Jokes planned %s, want mm (|OUT⋈|=%d)", dec.Strategy, dec.OutJoin)
	}
	ix := BuildIndexes(r, r)
	best := dec.PredictedCost
	for d1 := 1; d1 <= r.Size(); d1 *= 2 {
		for d2 := 1; d2 <= r.Size(); d2 *= 2 {
			if c := o.costWith(o.Constants(), ix, d1, d2, 1); c < best {
				best = c
			}
		}
	}
	if dec.PredictedCost > 25*best {
		t.Fatalf("descent cost %.0f much worse than grid best %.0f", dec.PredictedCost, best)
	}
}

func TestChooseCorrectnessEndToEnd(t *testing.T) {
	// Whatever the optimizer picks must not change the query result.
	rng := rand.New(rand.NewSource(42))
	r := randomRel(rng, "R", 2000, 40, 25)
	s := randomRel(rng, "S", 2000, 40, 25)
	o := New()
	dec := o.PlanTwoPath(r, s, joinproject.Options{Workers: 2}, "")
	var got [][2]int32
	if dec.UseWCOJ() {
		got = joinproject.TwoPathGroups(r, s, joinproject.Options{Delta1: r.Size() + 1, Delta2: r.Size() + 1}, true).Pairs()
	} else {
		got = joinproject.TwoPathGroups(r, s, joinproject.Options{Delta1: dec.Delta1, Delta2: dec.Delta2}, true).Pairs()
	}
	want := map[[2]int32]bool{}
	for _, rp := range r.Pairs() {
		for _, sp := range s.Pairs() {
			if rp.Y == sp.Y {
				want[[2]int32{rp.X, sp.X}] = true
			}
		}
	}
	if len(got) != len(want) {
		t.Fatalf("optimizer plan output %d pairs, want %d", len(got), len(want))
	}
}

func TestChooseStar(t *testing.T) {
	r, _ := dataset.ByName("Jokes", 0.15)
	o := New()
	dec := o.PlanStar([]*relation.Relation{r, r, r}, joinproject.Options{Workers: 1}, "")
	if !dec.UseWCOJ() {
		if dec.Delta1 < 1 || dec.Delta2 < 1 {
			t.Fatalf("star thresholds (%d, %d) invalid", dec.Delta1, dec.Delta2)
		}
	}
	sparse, _ := dataset.ByName("RoadNet", 0.2)
	dec = o.PlanStar([]*relation.Relation{sparse, sparse, sparse}, joinproject.Options{Workers: 1}, "")
	if !dec.UseWCOJ() {
		t.Fatal("sparse star should fall back to WCOJ")
	}
	if dec := o.PlanStar(nil, joinproject.Options{Workers: 1}, ""); !dec.UseWCOJ() {
		t.Fatal("empty star should fall back")
	}
}

func TestCostMonotoneInHeavyCount(t *testing.T) {
	r, _ := dataset.ByName("Protein", 0.15)
	o := New()
	ix := BuildIndexes(r, r)
	// Larger Δ1 with fixed Δ2 shrinks the matrix; the heavy cost must not
	// increase.
	h1 := o.heavyCost(ix, 1, 8, 1)
	h2 := o.heavyCost(ix, 64, 8, 1)
	if h2 > h1 {
		t.Fatalf("heavy cost grew with larger Δ1: %v → %v", h1, h2)
	}
	if o.heavyCost(ix, 1<<30, 1<<30, 1) != 0 {
		t.Fatal("no heavy values should cost 0")
	}
}

// Property: the cdf structure answers arbitrary queries consistently with a
// brute-force filter.
func TestQuickCDF(t *testing.T) {
	f := func(raw []uint8, delta uint8) bool {
		degs := make([]int32, len(raw))
		w := make([]float64, len(raw))
		for i, v := range raw {
			degs[i] = int32(v % 32)
			w[i] = float64(v)
		}
		c := buildCDF(degs, w)
		var want float64
		for i, d := range degs {
			if int(d) <= int(delta%40) {
				want += w[i]
			}
		}
		return c.sumUpTo(int(delta%40)) == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// total returns the whole distribution's weight.
func (c cdf) total() float64 { return c.prefix[len(c.degs)] }

// sortedCDF is the comparison-sort construction degreeCDFs replaced:
// (degree, entry) packed into one integer and sorted.
func sortedCDF(degs []int32, weights []float64) cdf {
	order := make([]uint64, len(degs))
	for i, d := range degs {
		order[i] = uint64(d)<<32 | uint64(i)
	}
	slices.Sort(order)
	c := cdf{degs: make([]int32, len(degs)), prefix: make([]float64, len(degs)+1)}
	for i, o := range order {
		c.degs[i] = int32(o >> 32)
		c.prefix[i+1] = c.prefix[i] + weights[uint32(o)]
	}
	return c
}

// TestDegreeCDFsMatchSortedOrder: the counting sort orders entries exactly as
// sorting (degree, entry) keys does, so every prefix sum is bit-identical —
// on uniform degrees, on Zipf-skewed ones with a long tail, and with the
// shared order serving several weightings at once.
func TestDegreeCDFsMatchSortedOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	zipf := rand.NewZipf(rng, 1.1, 1, 5000)
	for trial := 0; trial < 60; trial++ {
		n := rng.Intn(3000)
		degs := make([]int32, n)
		w1, w2 := make([]float64, n), make([]float64, n)
		for i := range degs {
			if trial%2 == 0 {
				degs[i] = int32(rng.Intn(40))
			} else {
				degs[i] = int32(1 + zipf.Uint64())
			}
			w1[i] = rng.Float64() * 1e6
			w2[i] = float64(rng.Intn(1000)) * float64(degs[i])
		}
		unit := make([]float64, n)
		for i := range unit {
			unit[i] = 1
		}
		got := degreeCDFs(degs, w1, w2, nil)
		for k, w := range [][]float64{w1, w2, unit} {
			want := sortedCDF(degs, w)
			if !slices.Equal(got[k].degs, want.degs) || !slices.Equal(got[k].prefix, want.prefix) {
				t.Fatalf("trial %d, weighting %d: the counted cdf differs from the sorted one", trial, k)
			}
		}
	}
}
