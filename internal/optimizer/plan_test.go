package optimizer

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/joinproject"
	"repro/internal/relation"
)

// TestPlanSeam pins the six rules of PlanTwoPath / PlanStar and the one
// translation Decision.Options: for every way a caller can ask (no planner,
// the planner on either side of the 20·N guard, each forced strategy; Δ
// pinned or not) the record carries the expected label and thresholds, the
// translated options are all-light iff the label is wcoj, and every kernel
// run from the record returns the brute-force answer.
func TestPlanSeam(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	dense := [2]*relation.Relation{randomRel(rng, "R", 1500, 30, 20), randomRel(rng, "S", 1500, 30, 20)}
	sparse := [2]*relation.Relation{pathRelation("R", 64), pathRelation("S", 64)}
	planner := NewWithConstants(Constants{Ts: 0.5, Tm: 6, TI: 4})

	cases := []struct {
		name          string
		o             *Optimizer
		in            [2]*relation.Relation
		force         string
		twoPath, star string // expected labels
		planned       bool   // unpinned thresholds come from the planner (≥ 1), else 0
	}{
		{"nil optimizer", nil, dense, "", StrategyMM, StrategyMM, false},
		{"auto under guard", planner, sparse, "auto", StrategyWCOJ, StrategyNonMM, false},
		{"auto dense", planner, dense, "", StrategyMM, StrategyMM, true},
		{"forced mm", planner, dense, StrategyMM, StrategyMM, StrategyMM, false},
		{"forced wcoj", planner, dense, StrategyWCOJ, StrategyWCOJ, StrategyNonMM, false},
		{"forced nonmm", nil, dense, StrategyNonMM, StrategyNonMM, StrategyNonMM, false},
	}
	for _, tc := range cases {
		for _, pin := range [][2]int{{0, 0}, {3, 5}} {
			label := fmt.Sprintf("%s pins=%v", tc.name, pin)
			r, s := tc.in[0], tc.in[1]
			base := joinproject.Options{Workers: 2, Delta1: pin[0], Delta2: pin[1]}

			dec := tc.o.PlanTwoPath(r, s, base, tc.force)
			checkRecord(t, label+" two-path", dec, tc.twoPath, pin, tc.planned)
			opt := dec.Options(base, r, s)
			if allLight := max(r.Size(), s.Size()) + 1; dec.Strategy == StrategyWCOJ {
				if opt.Delta1 != allLight || opt.Delta2 != allLight {
					t.Errorf("%s: wcoj options (%d,%d), want all-light %d", label, opt.Delta1, opt.Delta2, allLight)
				}
			} else if opt.Delta1 != dec.Delta1 || opt.Delta2 != dec.Delta2 {
				t.Errorf("%s: %s options (%d,%d), want the record's (%d,%d)",
					label, dec.Strategy, opt.Delta1, opt.Delta2, dec.Delta1, dec.Delta2)
			}
			if opt.Workers != base.Workers {
				t.Errorf("%s: translation dropped Workers", label)
			}

			want := map[[2]int32]int32{}
			for _, rp := range r.Pairs() {
				for _, sp := range s.Pairs() {
					if rp.Y == sp.Y {
						want[[2]int32{rp.X, sp.X}]++
					}
				}
			}
			mm := dec.Strategy != StrategyNonMM
			gotPairs := joinproject.TwoPathGroups(r, s, opt, mm).Pairs()
			if len(gotPairs) != len(want) {
				t.Errorf("%s: %d pairs, want %d", label, len(gotPairs), len(want))
			}
			for _, p := range gotPairs {
				if want[p] == 0 {
					t.Errorf("%s: wrong pair %v", label, p)
				}
			}
			gotCounts := joinproject.TwoPathCounts(r, s, opt, mm)
			if len(gotCounts) != len(want) {
				t.Errorf("%s: %d counted pairs, want %d", label, len(gotCounts), len(want))
			}
			for _, pc := range gotCounts {
				if want[[2]int32{pc.X, pc.Z}] != pc.Count {
					t.Errorf("%s: pair (%d,%d) count %d, want %d", label, pc.X, pc.Z, pc.Count, want[[2]int32{pc.X, pc.Z}])
				}
			}
			// The dense instance's S has 30 z keys, one word, so every x that
			// expands two or more z builds its row as a bitmap; the group-by
			// must count those rows exactly at every worker count.
			distinct := map[int32]int64{}
			for p := range want {
				distinct[p[0]]++
			}
			for _, workers := range []int{1, 2, 4} {
				gopt := opt
				gopt.Workers = workers
				groups := joinproject.TwoPathGroupBy(r, s, gopt)
				if len(groups) != len(distinct) {
					t.Errorf("%s workers=%d: %d groups, want %d", label, workers, len(groups), len(distinct))
				}
				for _, g := range groups {
					if g.Distinct != distinct[g.X] {
						t.Errorf("%s workers=%d: group %d has %d partners, want %d",
							label, workers, g.X, g.Distinct, distinct[g.X])
					}
				}
			}

			rels := []*relation.Relation{r, s, r}
			sdec := tc.o.PlanStar(rels, base, tc.force)
			checkRecord(t, label+" star", sdec, tc.star, pin, tc.planned)
			star := joinproject.StarMM
			if sdec.Strategy == StrategyNonMM {
				star = joinproject.StarNonMM
			}
			wantStar := map[[3]int32]bool{}
			for _, y := range r.ByY().Keys() {
				for _, x1 := range r.ByY().Lookup(y) {
					for _, x2 := range s.ByY().Lookup(y) {
						for _, x3 := range r.ByY().Lookup(y) {
							wantStar[[3]int32{x1, x2, x3}] = true
						}
					}
				}
			}
			gotStar := star(rels, sdec.Options(base, rels...))
			if len(gotStar) != len(wantStar) {
				t.Errorf("%s: star has %d tuples, want %d", label, len(gotStar), len(wantStar))
			}
			for _, tup := range gotStar {
				if !wantStar[[3]int32{tup[0], tup[1], tup[2]}] {
					t.Errorf("%s: wrong star tuple %v", label, tup)
				}
			}
		}
	}
}

// checkRecord asserts a record's label and thresholds: none under wcoj, the
// pins where given, else the planner's (≥ 1) or 0 for the kernel heuristic.
func checkRecord(t *testing.T, label string, dec Decision, strategy string, pin [2]int, planned bool) {
	t.Helper()
	if dec.Strategy != strategy {
		t.Errorf("%s: strategy %q, want %q", label, dec.Strategy, strategy)
	}
	if dec.UseWCOJ() != (strategy != StrategyMM) {
		t.Errorf("%s: UseWCOJ() = %v under %q", label, dec.UseWCOJ(), strategy)
	}
	switch {
	case strategy == StrategyWCOJ:
		if dec.Delta1 != 0 || dec.Delta2 != 0 {
			t.Errorf("%s: wcoj record carries thresholds (%d,%d)", label, dec.Delta1, dec.Delta2)
		}
	case pin != [2]int{}:
		if dec.Delta1 != pin[0] || dec.Delta2 != pin[1] {
			t.Errorf("%s: thresholds (%d,%d), want the pins %v", label, dec.Delta1, dec.Delta2, pin)
		}
	case planned:
		if dec.Delta1 < 1 || dec.Delta2 < 1 || dec.OutJoin == 0 || dec.PredictedCost <= 0 {
			t.Errorf("%s: planner record incomplete: %+v", label, dec)
		}
	default:
		if dec.Delta1 != 0 || dec.Delta2 != 0 {
			t.Errorf("%s: thresholds (%d,%d), want 0 (kernel heuristic)", label, dec.Delta1, dec.Delta2)
		}
	}
}
