// Package experiments regenerates every table and figure of the paper's
// evaluation (Section 7) on the synthetic dataset shapes. Each experiment
// returns the same rows/series the paper reports — dataset × algorithm ×
// running time for the bar charts, parameter sweeps for the line charts —
// so paper-vs-measured comparisons can be produced mechanically (recording
// them is ROADMAP direction 9).
//
// The harness is deliberately engine-agnostic: cmd/joinbench renders the
// rows as text tables, and the root-level testing.B benchmarks wrap
// individual experiment kernels.
package experiments

import (
	"fmt"
	"io"
	"sort"
	"time"

	"repro/internal/dataset"
	"repro/internal/relation"
)

// Row is one measured point of an experiment.
type Row struct {
	Dataset string  // dataset name or workload label
	Series  string  // algorithm / configuration
	Param   string  // x-axis value (cores, overlap c, batch size, ...)
	Seconds float64 // measured wall-clock seconds
	Extra   string  // free-form detail (output sizes, units, ...)
}

// Result is one regenerated table or figure.
type Result struct {
	ID    string
	Title string
	Rows  []Row
}

// Render prints the result as an aligned text table.
func (r Result) Render(w io.Writer) {
	fmt.Fprintf(w, "== %s — %s ==\n", r.ID, r.Title)
	fmt.Fprintf(w, "%-10s %-14s %-10s %12s  %s\n", "dataset", "series", "param", "seconds", "extra")
	for _, row := range r.Rows {
		fmt.Fprintf(w, "%-10s %-14s %-10s %12.4f  %s\n",
			row.Dataset, row.Series, row.Param, row.Seconds, row.Extra)
	}
}

// RenderCSV prints the result as CSV rows (experiment, dataset, series,
// param, seconds, extra) for downstream plotting.
func (r Result) RenderCSV(w io.Writer) {
	for _, row := range r.Rows {
		fmt.Fprintf(w, "%s,%s,%s,%s,%.6f,%q\n",
			r.ID, row.Dataset, row.Series, row.Param, row.Seconds, row.Extra)
	}
}

// runner produces a Result at the given dataset scale.
type runner func(scale float64) Result

var registry = map[string]struct {
	title string
	run   runner
}{}

func register(id, title string, run runner) {
	registry[id] = struct {
		title string
		run   runner
	}{title, run}
}

// IDs lists all experiment identifiers in stable order.
func IDs() []string {
	out := make([]string, 0, len(registry))
	for id := range registry {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

// Title returns an experiment's title.
func Title(id string) string { return registry[id].title }

// Run executes one experiment at the given scale.
func Run(id string, scale float64) (Result, error) {
	e, ok := registry[id]
	if !ok {
		return Result{}, fmt.Errorf("experiments: unknown experiment %q (known: %v)", id, IDs())
	}
	res := e.run(scale)
	res.ID, res.Title = id, e.title
	return res, nil
}

// timeIt measures fn once and returns elapsed seconds.
func timeIt(fn func()) float64 {
	start := time.Now()
	fn()
	return time.Since(start).Seconds()
}

// datasetCache avoids regenerating the same dataset repeatedly within one
// harness invocation.
var datasetCache = map[string]*relation.Relation{}

func getDataset(name string, scale float64) *relation.Relation {
	key := fmt.Sprintf("%s@%g", name, scale)
	if r, ok := datasetCache[key]; ok {
		return r
	}
	r, err := dataset.ByName(name, scale)
	if err != nil {
		panic(err)
	}
	datasetCache[key] = r
	return r
}

// starSample subsamples r until the 3-way self star join fits the budget,
// mirroring Section 7.2 ("we take the largest sample of each relation so
// that the result can fit in main memory and the join finishes in
// reasonable time").
func starSample(r *relation.Relation, budget int64) *relation.Relation {
	frac := 1.0
	cur := r
	for i := 0; i < 12; i++ {
		if relation.FullJoinSize(cur, cur, cur) <= budget {
			return cur
		}
		frac *= 0.7
		cur = dataset.Sample(r, frac, 1234)
	}
	return cur
}

// coreSweep is the core-count axis used by the parallel experiments
// (the paper sweeps 1–10 cores for joins and 2–6 for SSJ/SCJ).
var (
	joinCores = []int{1, 2, 4, 6, 8, 10}
	appCores  = []int{2, 3, 4, 5, 6}
)
