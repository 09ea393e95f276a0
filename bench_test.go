// Benchmarks regenerating every table and figure of the paper's evaluation
// (Section 7), plus ablations of the design choices listed in DESIGN.md.
//
// Each BenchmarkFigXX corresponds to one figure; its sub-benchmarks are the
// figure's series (dataset × algorithm × parameter). Dataset sizes default
// to a small scale so the whole suite finishes quickly; set
// REPRO_BENCH_SCALE (e.g. 0.5) for larger runs, and use cmd/joinbench for
// paper-style wall-clock tables at full scale.
package joinmm_test

import (
	"fmt"
	"math/rand"
	"os"
	"strconv"
	"sync"
	"testing"

	"repro/internal/baseline"
	"repro/internal/bsi"
	"repro/internal/dataset"
	"repro/internal/joinproject"
	"repro/internal/matrix"
	"repro/internal/optimizer"
	"repro/internal/relation"
	"repro/internal/scj"
	"repro/internal/ssj"
)

var benchScale = func() float64 {
	if s := os.Getenv("REPRO_BENCH_SCALE"); s != "" {
		if v, err := strconv.ParseFloat(s, 64); err == nil && v > 0 {
			return v
		}
	}
	return 0.1
}()

var (
	dsMu    sync.Mutex
	dsCache = map[string]*relation.Relation{}
)

func ds(b *testing.B, name string, scale float64) *relation.Relation {
	b.Helper()
	key := fmt.Sprintf("%s@%g", name, scale)
	dsMu.Lock()
	defer dsMu.Unlock()
	if r, ok := dsCache[key]; ok {
		return r
	}
	r, err := dataset.ByName(name, scale)
	if err != nil {
		b.Fatal(err)
	}
	dsCache[key] = r
	return r
}

// ssjScale shrinks Words for the SizeAware baseline's slow light phase,
// mirroring internal/experiments.
func ssjScale(name string) float64 {
	if name == "Words" {
		return benchScale * 0.5
	}
	return benchScale
}

func starDS(b *testing.B, name string) *relation.Relation {
	r := ds(b, name, benchScale)
	key := "star:" + name
	dsMu.Lock()
	defer dsMu.Unlock()
	if s, ok := dsCache[key]; ok {
		return s
	}
	s := r
	frac := 1.0
	for i := 0; i < 12 && relation.FullJoinSize(s, s, s) > 2_000_000; i++ {
		frac *= 0.7
		s = dataset.Sample(r, frac, 1234)
	}
	dsCache[key] = s
	return s
}

// ---------------------------------------------------------------- Table 2

func BenchmarkTable2_DatasetGeneration(b *testing.B) {
	for _, name := range dataset.Names() {
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				r, err := dataset.ByName(name, benchScale)
				if err != nil || r.Size() == 0 {
					b.Fatal(err)
				}
			}
		})
	}
}

// ---------------------------------------------------------------- Figure 3

func BenchmarkFig3a_MatMulSingleCore(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	for _, n := range []int{512, 1024, 2048} {
		a := matrix.NewBitMatrix(n, n)
		c := matrix.NewBitMatrix(n, n)
		for i := 0; i < n; i++ {
			for j := rng.Intn(3); j < n; j += 1 + rng.Intn(5) {
				a.Set(i, j)
				c.Set(i, (j+i)%n)
			}
		}
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_ = matrix.MulBitCount(a, c, 1)
			}
		})
	}
}

func BenchmarkFig3b_MatMulMultiCore(b *testing.B) {
	rng := rand.New(rand.NewSource(8))
	const n = 2048
	a := matrix.NewBitMatrix(n, n)
	c := matrix.NewBitMatrix(n, n)
	for i := 0; i < n; i++ {
		for j := rng.Intn(3); j < n; j += 1 + rng.Intn(5) {
			a.Set(i, j)
			c.Set(i, (j+i)%n)
		}
	}
	for _, cores := range []int{1, 2, 3, 4, 5} {
		b.Run(fmt.Sprintf("cores=%d", cores), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_ = matrix.MulBitCount(a, c, cores)
			}
		})
	}
}

// ---------------------------------------------------------------- Figure 4a

func BenchmarkFig4a_TwoPathSingleCore(b *testing.B) {
	opt := optimizer.New()
	for _, name := range dataset.Names() {
		r := ds(b, name, benchScale)
		b.Run(name+"/MMJoin", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				jopt := joinproject.Options{Workers: 1}
				jopt = opt.PlanTwoPath(r, r, jopt, "").Options(jopt, r, r)
				_ = joinproject.TwoPathGroups(r, r, jopt, true)
			}
		})
		b.Run(name+"/NonMMJoin", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_ = joinproject.TwoPathGroups(r, r, joinproject.Options{Workers: 1}, false)
			}
		})
		b.Run(name+"/Postgres", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_ = baseline.HashJoinDedup(r, r)
			}
		})
		b.Run(name+"/MySQL", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_ = baseline.SortMergeJoinDedup(r, r)
			}
		})
		b.Run(name+"/EmptyHeaded", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_ = baseline.EmptyHeadedJoin(r, r, 1)
			}
		})
		b.Run(name+"/SystemX", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_ = baseline.SystemXJoinDedup(r, r)
			}
		})
	}
}

// ---------------------------------------------------------------- Figure 4b

func BenchmarkFig4b_StarSingleCore(b *testing.B) {
	for _, name := range dataset.Names() {
		r := starDS(b, name)
		rels := []*relation.Relation{r, r, r}
		b.Run(name+"/MMJoin", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_ = joinproject.StarMMSize(rels, joinproject.Options{Workers: 1})
			}
		})
		b.Run(name+"/NonMMJoin", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_ = joinproject.StarNonMM(rels, joinproject.Options{Workers: 1})
			}
		})
	}
}

// ---------------------------------------------------------------- Figure 4c

func BenchmarkFig4c_SCJSingleCore(b *testing.B) {
	for _, name := range dataset.Names() {
		r := ds(b, name, ssjScale(name))
		b.Run(name+"/MMJoin", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_ = scj.MMJoin(r, scj.Options{Workers: 1})
			}
		})
		b.Run(name+"/PIEJoin", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_ = scj.PIEJoin(r, scj.Options{Workers: 1})
			}
		})
		b.Run(name+"/PRETTI", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_ = scj.PRETTI(r, scj.Options{})
			}
		})
		b.Run(name+"/LIMIT+", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_ = scj.LimitPlus(r, scj.Options{Limit: 2})
			}
		})
	}
}

// ------------------------------------------------------- Figures 4d/4e/4f/4g

func benchJoinParallel(b *testing.B, name string) {
	r := ds(b, name, benchScale)
	opt := optimizer.New()
	for _, cores := range []int{1, 4, 10} {
		b.Run(fmt.Sprintf("cores=%d/MMJoin", cores), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				jopt := joinproject.Options{Workers: cores}
				jopt = opt.PlanTwoPath(r, r, jopt, "").Options(jopt, r, r)
				_ = joinproject.TwoPathGroups(r, r, jopt, true)
			}
		})
		b.Run(fmt.Sprintf("cores=%d/NonMMJoin", cores), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_ = joinproject.TwoPathGroups(r, r, joinproject.Options{Workers: cores}, false)
			}
		})
	}
}

func BenchmarkFig4d_TwoPathParallelJokes(b *testing.B) { benchJoinParallel(b, "Jokes") }
func BenchmarkFig4e_TwoPathParallelWords(b *testing.B) { benchJoinParallel(b, "Words") }

func benchStarParallel(b *testing.B, name string) {
	r := starDS(b, name)
	rels := []*relation.Relation{r, r, r}
	for _, cores := range []int{1, 4, 10} {
		b.Run(fmt.Sprintf("cores=%d/MMJoin", cores), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_ = joinproject.StarMMSize(rels, joinproject.Options{Workers: cores})
			}
		})
		b.Run(fmt.Sprintf("cores=%d/NonMMJoin", cores), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_ = joinproject.StarNonMM(rels, joinproject.Options{Workers: cores})
			}
		})
	}
}

func BenchmarkFig4f_StarParallelJokes(b *testing.B) { benchStarParallel(b, "Jokes") }
func BenchmarkFig4g_StarParallelWords(b *testing.B) { benchStarParallel(b, "Words") }

// --------------------------------------------------------- Figures 5a/5b/5c

func benchSSJUnordered(b *testing.B, name string) {
	r := ds(b, name, ssjScale(name))
	for _, c := range []int{2, 4, 6} {
		b.Run(fmt.Sprintf("c=%d/MMJoin", c), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_ = ssj.MMJoin(r, c, ssj.Options{Workers: 1})
			}
		})
		b.Run(fmt.Sprintf("c=%d/SizeAware++", c), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_ = ssj.SizeAwarePP(r, c, ssj.PPOptions{Heavy: true, Prefix: true})
			}
		})
		b.Run(fmt.Sprintf("c=%d/SizeAware", c), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_ = ssj.SizeAware(r, c, ssj.Options{Workers: 1})
			}
		})
	}
}

func BenchmarkFig5a_SSJUnorderedDBLP(b *testing.B)  { benchSSJUnordered(b, "DBLP") }
func BenchmarkFig5b_SSJUnorderedJokes(b *testing.B) { benchSSJUnordered(b, "Jokes") }
func BenchmarkFig5c_SSJUnorderedImage(b *testing.B) { benchSSJUnordered(b, "Image") }

// ------------------------------------------------------- Figures 5d/5g/5h

func benchSSJParallel(b *testing.B, name string) {
	r := ds(b, name, ssjScale(name))
	const c = 2
	for _, cores := range []int{2, 6} {
		b.Run(fmt.Sprintf("cores=%d/MMJoin", cores), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_ = ssj.MMJoin(r, c, ssj.Options{Workers: cores})
			}
		})
		b.Run(fmt.Sprintf("cores=%d/SizeAware++", cores), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_ = ssj.SizeAwarePP(r, c, ssj.PPOptions{Options: ssj.Options{Workers: cores}, Heavy: true, Light: true})
			}
		})
		b.Run(fmt.Sprintf("cores=%d/SizeAware", cores), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_ = ssj.SizeAware(r, c, ssj.Options{Workers: cores})
			}
		})
	}
}

func BenchmarkFig5d_SSJParallelDBLP(b *testing.B)  { benchSSJParallel(b, "DBLP") }
func BenchmarkFig5g_SSJParallelJokes(b *testing.B) { benchSSJParallel(b, "Jokes") }
func BenchmarkFig5h_SSJParallelImage(b *testing.B) { benchSSJParallel(b, "Image") }

// --------------------------------------------------- Figures 5e/5f and 6a

func benchSSJOrdered(b *testing.B, name string) {
	r := ds(b, name, ssjScale(name))
	for _, c := range []int{2, 4, 6} {
		b.Run(fmt.Sprintf("c=%d/MMJoin", c), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_ = ssj.MMJoinOrdered(r, c, ssj.Options{Workers: 1})
			}
		})
		b.Run(fmt.Sprintf("c=%d/SizeAware++", c), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				pairs := ssj.SizeAwarePP(r, c, ssj.PPOptions{Heavy: true, Prefix: true})
				_ = ssj.OrderPairs(r, pairs)
			}
		})
		b.Run(fmt.Sprintf("c=%d/SizeAware", c), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				pairs := ssj.SizeAware(r, c, ssj.Options{Workers: 1})
				_ = ssj.OrderPairs(r, pairs)
			}
		})
	}
}

func BenchmarkFig5e_SSJOrderedDBLP(b *testing.B)  { benchSSJOrdered(b, "DBLP") }
func BenchmarkFig5f_SSJOrderedJokes(b *testing.B) { benchSSJOrdered(b, "Jokes") }
func BenchmarkFig6a_SSJOrderedImage(b *testing.B) { benchSSJOrdered(b, "Image") }

// --------------------------------------------------------- Figures 6b/6c/6d

func benchBSI(b *testing.B, name string) {
	r := ds(b, name, benchScale)
	for _, batch := range []int{500, 1100, 1900} {
		queries := bsi.RandomWorkload(r, r, batch, 42)
		b.Run(fmt.Sprintf("C=%d/MMJoin", batch), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_ = bsi.AnswerBatch(r, r, queries, bsi.Options{UseMM: true, Workers: 1})
			}
		})
		b.Run(fmt.Sprintf("C=%d/NonMMJoin", batch), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_ = bsi.AnswerBatch(r, r, queries, bsi.Options{UseMM: false, Workers: 1})
			}
		})
	}
}

func BenchmarkFig6b_BSIJokes(b *testing.B) { benchBSI(b, "Jokes") }
func BenchmarkFig6c_BSIWords(b *testing.B) { benchBSI(b, "Words") }
func BenchmarkFig6d_BSIImage(b *testing.B) { benchBSI(b, "Image") }

// ----------------------------------------------------------- Figures 7a–7d

func benchSCJParallel(b *testing.B, name string) {
	r := ds(b, name, ssjScale(name))
	for _, cores := range []int{2, 6} {
		b.Run(fmt.Sprintf("cores=%d/MMJoin", cores), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_ = scj.MMJoin(r, scj.Options{Workers: cores})
			}
		})
		b.Run(fmt.Sprintf("cores=%d/PIEJoin", cores), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_ = scj.PIEJoin(r, scj.Options{Workers: cores})
			}
		})
	}
}

func BenchmarkFig7a_SCJParallelJokes(b *testing.B)   { benchSCJParallel(b, "Jokes") }
func BenchmarkFig7b_SCJParallelWords(b *testing.B)   { benchSCJParallel(b, "Words") }
func BenchmarkFig7c_SCJParallelProtein(b *testing.B) { benchSCJParallel(b, "Protein") }
func BenchmarkFig7d_SCJParallelImage(b *testing.B)   { benchSCJParallel(b, "Image") }

// ----------------------------------------------------------------- Figure 8

func BenchmarkFig8_SSJAblationWords(b *testing.B) {
	r := ds(b, "Words", ssjScale("Words"))
	const c = 2
	configs := []struct {
		name string
		opt  ssj.PPOptions
	}{
		{"NO-OP", ssj.PPOptions{}},
		{"Light", ssj.PPOptions{Light: true}},
		{"Heavy", ssj.PPOptions{Light: true, Heavy: true}},
		{"Prefix", ssj.PPOptions{Light: true, Heavy: true, Prefix: true}},
	}
	for _, cfg := range configs {
		b.Run(cfg.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_ = ssj.SizeAwarePP(r, c, cfg.opt)
			}
		})
	}
}

// ---------------------------------------------------------------- Ablations

// twoPathSize is |OUT| of the 2-path without storing the pairs: the sum of
// the group-by's distinct counts.
func twoPathSize(r, s *relation.Relation, opt joinproject.Options) (n int64) {
	for _, g := range joinproject.TwoPathGroupBy(r, s, opt) {
		n += g.Distinct
	}
	return n
}

// AblationThresholds: Algorithm-3 chosen thresholds vs naive fixed choices,
// validating that the optimizer's pick is near the best fixed grid point.
func BenchmarkAblationThresholds(b *testing.B) {
	r := ds(b, "Jokes", benchScale)
	opt := optimizer.New()
	jopt := joinproject.Options{Workers: 1}
	jopt = opt.PlanTwoPath(r, r, jopt, "").Options(jopt, r, r)
	b.Run("Optimizer", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = twoPathSize(r, r, jopt)
		}
	})
	for _, fixed := range []int{1, 16, 256} {
		b.Run(fmt.Sprintf("Fixed=%d", fixed), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_ = twoPathSize(r, r, joinproject.Options{Delta1: fixed, Delta2: fixed, Workers: 1})
			}
		})
	}
}

// AblationEstimator: the cost of planning one instance with Algorithm 3 and
// the geometric-mean estimate — measures planning, not execution.
func BenchmarkAblationEstimator(b *testing.B) {
	r := ds(b, "Image", benchScale)
	opt := optimizer.New()
	for i := 0; i < b.N; i++ {
		_ = opt.PlanTwoPath(r, r, joinproject.Options{Workers: 1}, "")
	}
}

// GroupBy: the Section-9 aggregate extension vs materialize-then-aggregate.
func BenchmarkGroupByCount(b *testing.B) {
	r := ds(b, "Words", benchScale)
	b.Run("OutputSensitive", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = joinproject.TwoPathGroupBy(r, r, joinproject.Options{Workers: 1})
		}
	})
	b.Run("MaterializeFirst", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			pairs := baseline.HashJoinDedup(r, r)
			agg := map[int32]int64{}
			for _, p := range pairs {
				agg[p[0]]++
			}
		}
	})
}

// AblationReduce: semi-join reduction on/off for a join with dangling
// tuples (R and S generated from different shapes share only part of the
// y-domain).
func BenchmarkAblationReduce(b *testing.B) {
	r := ds(b, "Words", benchScale)
	s := ds(b, "Jokes", benchScale)
	b.Run("Raw", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = twoPathSize(r, s, joinproject.Options{Workers: 1})
		}
	})
	b.Run("Reduced", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			red := relation.Reduce(r, s)
			_ = twoPathSize(red[0], red[1], joinproject.Options{Workers: 1})
		}
	})
}
