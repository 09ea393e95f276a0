// Command joinbench regenerates the paper's tables and figures and snapshots
// the one measurement bench/ has no workload for: the view
// maintain-vs-recompute ratio. Every end-to-end speed claim is made with
// `bash bench/run.sh` (see bench/README.md); the matrix kernel is measured
// there on the client path (matrix.mul_ms, par.speedup) and in isolation by
// `go test -bench Fig3 .`.
//
// Usage:
//
//	joinbench -list
//	joinbench -experiment fig4a -scale 0.5
//	joinbench -experiment all  -scale 0.25
//	joinbench -views                                 # view maintenance bench
//	joinbench -views -views-baseline BENCH_views.json  # + maintenance gate
//
// Each experiment prints the same rows/series the paper's corresponding
// table or figure reports (dataset × algorithm × running time, or a
// parameter sweep). Scale rescales the synthetic dataset shapes; see
// DESIGN.md for the dataset substitution rationale.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/experiments"
)

func main() {
	var (
		exp       = flag.String("experiment", "", "experiment id (e.g. fig4a), or 'all'")
		scale     = flag.Float64("scale", 0.5, "dataset scale factor")
		list      = flag.Bool("list", false, "list available experiments")
		csv       = flag.Bool("csv", false, "emit CSV rows instead of tables")
		tolerance = flag.Float64("tolerance", 0.10, "with -views-baseline: allowed drop of a view's speedup ratio")
		viewsMode = flag.Bool("views", false, "benchmark incremental view maintenance vs full recompute; writes BENCH_views.json")
		viewsBase = flag.String("views-baseline", "", "with -views: gate each view's speedup over recompute against this BENCH_views.json snapshot")
	)
	flag.Parse()

	if *viewsMode {
		runViewBench(*scale, *viewsBase, *tolerance)
		if *exp == "" && !*list {
			return
		}
	}

	if *list || *exp == "" {
		fmt.Println("available experiments:")
		for _, id := range experiments.IDs() {
			fmt.Printf("  %-8s %s\n", id, experiments.Title(id))
		}
		if *exp == "" && !*list {
			os.Exit(2)
		}
		return
	}

	ids := []string{*exp}
	if *exp == "all" {
		ids = experiments.IDs()
	}
	if *csv {
		fmt.Println("experiment,dataset,series,param,seconds,extra")
	}
	for _, id := range ids {
		start := time.Now()
		res, err := experiments.Run(id, *scale)
		if err != nil {
			fmt.Fprintln(os.Stderr, "joinbench:", err)
			os.Exit(1)
		}
		if *csv {
			res.RenderCSV(os.Stdout)
			continue
		}
		res.Render(os.Stdout)
		fmt.Printf("-- %s completed in %v (scale %g)\n\n", id, time.Since(start).Round(time.Millisecond), *scale)
	}
}

// runViewBench measures the canned view-maintenance suite (register views,
// stream update batches, time each beside a full recompute; the median of
// several runs per view),
// writes BENCH_views.json, and — when a baseline snapshot is given — gates
// each view's speedup over recompute (a ratio the machine's speed cancels out
// of) against it.
func runViewBench(scale float64, baseline string, tolerance float64) {
	// Read the baseline before measuring: the snapshot overwrites the file.
	var base []byte
	if baseline != "" {
		var err error
		base, err = os.ReadFile(baseline)
		if err != nil {
			fmt.Fprintln(os.Stderr, "joinbench:", err)
			os.Exit(1)
		}
	}
	snap, err := experiments.ViewBenchSnapshot(scale)
	if err != nil {
		fmt.Fprintln(os.Stderr, "joinbench:", err)
		os.Exit(1)
	}
	if err := os.WriteFile("BENCH_views.json", snap, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "joinbench:", err)
		os.Exit(1)
	}
	table, err := experiments.RenderViewSnapshot(snap)
	if err != nil {
		fmt.Fprintln(os.Stderr, "joinbench:", err)
		os.Exit(1)
	}
	fmt.Print(table)
	fmt.Println("wrote BENCH_views.json")
	if base != nil {
		regs, err := experiments.CompareViewSnapshots(base, snap, tolerance)
		if err != nil {
			fmt.Fprintln(os.Stderr, "joinbench:", err)
			os.Exit(1)
		}
		if len(regs) > 0 {
			fmt.Fprintf(os.Stderr, "joinbench: %d view maintenance regression(s) beyond %.0f%% vs %s:\n",
				len(regs), tolerance*100, baseline)
			for _, r := range regs {
				fmt.Fprintln(os.Stderr, "  "+r.String())
			}
			os.Exit(1)
		}
		fmt.Printf("no view maintenance regressions beyond %.0f%% vs %s\n", tolerance*100, baseline)
	}
}
