package core

import (
	"testing"

	"repro/internal/baseline"
	"repro/internal/dataset"
	"repro/internal/joinproject"
	"repro/internal/relation"
	"repro/internal/wcoj"
)

// TestAllShapesAllEngines is the cross-module integration test: on every
// Table-2 dataset shape, every evaluation strategy and every baseline engine
// must produce exactly the same projected result set.
func TestAllShapesAllEngines(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test")
	}
	for _, name := range dataset.Names() {
		r, err := dataset.ByName(name, 0.05)
		if err != nil {
			t.Fatal(err)
		}
		t.Run(name, func(t *testing.T) {
			oracle := wcoj.Project2Path(r, r)
			want := len(oracle)

			engines := map[string]func() int{
				"auto": func() int {
					out, _ := NewEngine().JoinProject(r, r)
					return len(out)
				},
				"mm": func() int {
					out, _ := NewEngine(WithStrategy(ForceMM)).JoinProject(r, r)
					return len(out)
				},
				"nonmm": func() int {
					out, _ := NewEngine(WithStrategy(ForceNonMM)).JoinProject(r, r)
					return len(out)
				},
				"wcoj": func() int {
					out, _ := NewEngine(WithStrategy(ForceWCOJ)).JoinProject(r, r)
					return len(out)
				},
				"postgres":    func() int { return len(baseline.HashJoinDedup(r, r)) },
				"mysql":       func() int { return len(baseline.SortMergeJoinDedup(r, r)) },
				"systemx":     func() int { return len(baseline.SystemXJoinDedup(r, r)) },
				"emptyheaded": func() int { return len(baseline.EmptyHeadedJoin(r, r, 2)) },
			}
			for label, fn := range engines {
				if got := fn(); got != want {
					t.Errorf("%s/%s: %d pairs, oracle %d", name, label, got, want)
				}
			}
		})
	}
}

// TestStarShapesAgree checks the star algorithms across shapes at small
// scale.
func TestStarShapesAgree(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test")
	}
	for _, name := range []string{"RoadNet", "Jokes", "Protein"} {
		r, _ := dataset.ByName(name, 0.03)
		rels := []*relation.Relation{r, r, r}
		want := len(wcoj.ProjectStar(rels))
		mm := joinproject.StarMMSize(rels, joinproject.Options{Workers: 4})
		if int(mm) != want {
			t.Errorf("%s: StarMM %d tuples, oracle %d", name, mm, want)
		}
		nonmm := len(joinproject.StarNonMM(rels, joinproject.Options{Workers: 4}))
		if nonmm != want {
			t.Errorf("%s: StarNonMM %d tuples, oracle %d", name, nonmm, want)
		}
	}
}

// TestApplicationsOnShapes cross-checks the three applications on realistic
// shapes against each other (pairwise-independent implementations).
func TestApplicationsOnShapes(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test")
	}
	for _, name := range []string{"DBLP", "Words"} {
		r, _ := dataset.ByName(name, 0.02)
		mm := NewEngine()
		comb := NewEngine(WithStrategy(ForceNonMM))
		for c := 1; c <= 3; c++ {
			a := mm.SimilarSets(r, c)
			b := comb.SimilarSets(r, c)
			if len(a) != len(b) {
				t.Errorf("%s SSJ c=%d: mm %d pairs, sizeaware %d", name, c, len(a), len(b))
			}
		}
		sa := mm.ContainedSets(r)
		sb := comb.ContainedSets(r)
		if len(sa) != len(sb) {
			t.Errorf("%s SCJ: mm %d, pretti %d", name, len(sa), len(sb))
		}
	}
}
