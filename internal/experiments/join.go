package experiments

import (
	"fmt"

	"repro/internal/baseline"
	"repro/internal/dataset"
	"repro/internal/joinproject"
	"repro/internal/optimizer"
	"repro/internal/relation"
)

func init() {
	register("fig4a", "Two-path join, single core: MMJoin vs baselines (Figure 4a)", runFig4a)
	register("fig4b", "Three-relation star join, single core (Figure 4b)", runFig4b)
	register("fig4d", "Two-path join, multicore, Jokes (Figure 4d)", func(s float64) Result { return runJoinParallel("Jokes", s) })
	register("fig4e", "Two-path join, multicore, Words (Figure 4e)", func(s float64) Result { return runJoinParallel("Words", s) })
	register("fig4f", "Star join, multicore, Jokes (Figure 4f)", func(s float64) Result { return runStarParallel("Jokes", s) })
	register("fig4g", "Star join, multicore, Words (Figure 4g)", func(s float64) Result { return runStarParallel("Words", s) })
}

// runMMJoin evaluates the 2-path self join the way the paper's MMJoin does:
// the cost-based optimizer picks the plan (WCOJ fallback or thresholds),
// then Algorithm 1 runs.
func runMMJoin(opt *optimizer.Optimizer, r *relation.Relation, workers int) (n int, plan string) {
	base := joinproject.Options{Workers: workers}
	dec := opt.PlanTwoPath(r, r, base, "")
	plan = "wcoj-fallback"
	if !dec.UseWCOJ() {
		plan = fmt.Sprintf("d1=%d,d2=%d", dec.Delta1, dec.Delta2)
	}
	return len(joinproject.TwoPathGroups(r, r, dec.Options(base, r, r), true).ZPos), plan
}

func runFig4a(scale float64) Result {
	var res Result
	opt := optimizer.New()
	for _, name := range dataset.Names() {
		r := getDataset(name, scale)
		var out int
		var plan string
		secs := timeIt(func() { out, plan = runMMJoin(opt, r, 1) })
		res.Rows = append(res.Rows, Row{Dataset: name, Series: "MMJoin", Param: "1core",
			Seconds: secs, Extra: fmt.Sprintf("|OUT|=%d %s", out, plan)})

		secs = timeIt(func() { out = len(joinproject.TwoPathGroups(r, r, joinproject.Options{Workers: 1}, false).ZPos) })
		res.Rows = append(res.Rows, Row{Dataset: name, Series: "Non-MMJoin", Param: "1core",
			Seconds: secs, Extra: fmt.Sprintf("|OUT|=%d", out)})

		secs = timeIt(func() { out = len(baseline.HashJoinDedup(r, r)) })
		res.Rows = append(res.Rows, Row{Dataset: name, Series: "Postgres", Param: "1core",
			Seconds: secs, Extra: fmt.Sprintf("|OUT|=%d", out)})

		secs = timeIt(func() { out = len(baseline.SortMergeJoinDedup(r, r)) })
		res.Rows = append(res.Rows, Row{Dataset: name, Series: "MySQL", Param: "1core",
			Seconds: secs, Extra: fmt.Sprintf("|OUT|=%d", out)})

		secs = timeIt(func() { out = len(baseline.EmptyHeadedJoin(r, r, 1)) })
		res.Rows = append(res.Rows, Row{Dataset: name, Series: "EmptyHeaded", Param: "1core",
			Seconds: secs, Extra: fmt.Sprintf("|OUT|=%d", out)})

		secs = timeIt(func() { out = len(baseline.SystemXJoinDedup(r, r)) })
		res.Rows = append(res.Rows, Row{Dataset: name, Series: "SystemX", Param: "1core",
			Seconds: secs, Extra: fmt.Sprintf("|OUT|=%d", out)})
	}
	return res
}

const starBudget = 20_000_000 // full-join tuples the star experiments allow

func runFig4b(scale float64) Result {
	var res Result
	for _, name := range dataset.Names() {
		r := starSample(getDataset(name, scale), starBudget)
		rels := []*relation.Relation{r, r, r}
		var out int64
		secs := timeIt(func() { out = joinproject.StarMMSize(rels, joinproject.Options{Workers: 1}) })
		res.Rows = append(res.Rows, Row{Dataset: name, Series: "MMJoin", Param: "1core",
			Seconds: secs, Extra: fmt.Sprintf("|OUT|=%d N=%d", out, r.Size())})
		secs = timeIt(func() { out = int64(len(joinproject.StarNonMM(rels, joinproject.Options{Workers: 1}))) })
		res.Rows = append(res.Rows, Row{Dataset: name, Series: "Non-MMJoin", Param: "1core",
			Seconds: secs, Extra: fmt.Sprintf("|OUT|=%d N=%d", out, r.Size())})
	}
	return res
}

func runJoinParallel(name string, scale float64) Result {
	var res Result
	opt := optimizer.New()
	// Parallel scaling needs enough work per core to measure; run the
	// multicore sweeps at twice the harness scale.
	r := getDataset(name, scale*2)
	for _, co := range joinCores {
		var out int
		secs := timeIt(func() { out, _ = runMMJoin(opt, r, co) })
		res.Rows = append(res.Rows, Row{Dataset: name, Series: "MMJoin",
			Param: fmt.Sprintf("cores=%d", co), Seconds: secs, Extra: fmt.Sprintf("|OUT|=%d", out)})
		secs = timeIt(func() { out = len(joinproject.TwoPathGroups(r, r, joinproject.Options{Workers: co}, false).ZPos) })
		res.Rows = append(res.Rows, Row{Dataset: name, Series: "Non-MMJoin",
			Param: fmt.Sprintf("cores=%d", co), Seconds: secs, Extra: fmt.Sprintf("|OUT|=%d", out)})
	}
	return res
}

func runStarParallel(name string, scale float64) Result {
	var res Result
	r := starSample(getDataset(name, scale*2), starBudget)
	rels := []*relation.Relation{r, r, r}
	for _, co := range joinCores {
		var out int64
		secs := timeIt(func() { out = joinproject.StarMMSize(rels, joinproject.Options{Workers: co}) })
		res.Rows = append(res.Rows, Row{Dataset: name, Series: "MMJoin",
			Param: fmt.Sprintf("cores=%d", co), Seconds: secs, Extra: fmt.Sprintf("|OUT|=%d", out)})
		secs = timeIt(func() { out = int64(len(joinproject.StarNonMM(rels, joinproject.Options{Workers: co}))) })
		res.Rows = append(res.Rows, Row{Dataset: name, Series: "Non-MMJoin",
			Param: fmt.Sprintf("cores=%d", co), Seconds: secs, Extra: fmt.Sprintf("|OUT|=%d", out)})
	}
	return res
}
