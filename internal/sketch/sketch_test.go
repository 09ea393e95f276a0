package sketch

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/relation"
)

func TestHLLAccuracy(t *testing.T) {
	for _, n := range []int{100, 10000, 500000} {
		h := NewHLL(12)
		for i := 0; i < n; i++ {
			h.Add(uint64(i))
		}
		est := h.Estimate()
		if math.Abs(est-float64(n))/float64(n) > 0.1 {
			t.Fatalf("HLL estimate %v for n=%d (err %.2f%%)", est, n, 100*math.Abs(est-float64(n))/float64(n))
		}
	}
}

func TestHLLPrecisionClamped(t *testing.T) {
	if got := len(NewHLL(1).regs); got != 16 {
		t.Fatalf("p<4 should clamp to 4 (16 regs), got %d", got)
	}
	if got := len(NewHLL(30).regs); got != 1<<16 {
		t.Fatalf("p>16 should clamp to 16, got %d regs", got)
	}
}

func TestPairKeyInjective(t *testing.T) {
	seen := map[uint64][2]int32{}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 10000; i++ {
		x, z := int32(rng.Intn(1000)), int32(rng.Intn(1000))
		k := PairKey(x, z)
		if prev, ok := seen[k]; ok && (prev[0] != x || prev[1] != z) {
			t.Fatalf("collision: %v and (%d,%d)", prev, x, z)
		}
		seen[k] = [2]int32{x, z}
	}
}

func randomRel(rng *rand.Rand, n, xdom, ydom int) *relation.Relation {
	ps := make([]relation.Pair, n)
	for i := range ps {
		ps[i] = relation.Pair{X: int32(rng.Intn(xdom)), Y: int32(rng.Intn(ydom))}
	}
	return relation.FromPairs("r", ps)
}

func TestEstimateJoinProject(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	r := randomRel(rng, 3000, 200, 80)
	s := randomRel(rng, 3000, 200, 80)
	// Exact output size.
	exact := map[uint64]struct{}{}
	for _, rp := range r.Pairs() {
		for _, sp := range s.Pairs() {
			if rp.Y == sp.Y {
				exact[PairKey(rp.X, sp.X)] = struct{}{}
			}
		}
	}
	n := float64(len(exact))
	hll := EstimateJoinProjectHLL(r, s, 12)
	if math.Abs(hll-n)/n > 0.1 {
		t.Fatalf("HLL join-project estimate %v, exact %v", hll, n)
	}
}

func TestQuickHLLDeterministic(t *testing.T) {
	f := func(vals []uint64) bool {
		a, b := NewHLL(10), NewHLL(10)
		for _, v := range vals {
			a.Add(v)
			b.Add(v)
		}
		return a.Estimate() == b.Estimate()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
