// Command bench is the repository's end-to-end benchmark: it boots the real
// HTTP server in-process on a loopback listener, hands it seeded inputs,
// drives six closed-loop workloads through the client path, checks every
// answer against an oracle, and — in a separate traced pass — times the
// calls into each layer's public API. README.md in this directory is the
// reference; run it from the root of the checkout:
//
//	bash bench/run.sh                         # whole suite, both passes
//	bash bench/run.sh -runs 2                 # repeatability self-check
//	bash bench/run.sh --workload dense_rows --seed 7 --seconds 15 --trace 0
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"time"
)

const (
	defaultSeed    = 1
	defaultSeconds = 15
	setupReps      = 5   // set-ups per run; setup_s is their median
	windowSlices   = 5   // equal parts of the window; each metric is the median over them
	minOperations  = 200 // a window with fewer timed operations is not reported
	maxDrift       = 0.02
	maxHarness     = 0.2
)

// metricDef is one row of BENCHMARK.json's end_to_end or per_layer list.
type metricDef struct {
	name, unit, better string
	bound              float64
}

// endToEnd lists the metrics of the timed pass, the same on every workload.
// error_rate is not among them: it is 0 on a healthy run, and the benchmark
// contract compares medians as ratios; failed ÷ attempted is printed with
// every result instead.
var endToEnd = []metricDef{
	{"throughput_ops_s", "ops/s", "higher", 0.25},
	{"latency_p50_ms", "ms", "lower", 0.25},
	{"latency_p95_ms", "ms", "lower", 0.25},
	{"setup_s", "s", "lower", 0.25},
}

// workloadDef is one row of BENCHMARK.json's workloads list plus its
// constructor. Building a load generates its inputs and oracle answers.
type workloadDef struct {
	name    string
	clients int
	build   func(cfg config, clients int) load
}

var workloads = []workloadDef{
	{"dense_rows", 1, func(cfg config, _ int) load { return denseLoad(cfg.seed, cfg.sz, false) }},
	{"dense_count", 1, func(cfg config, _ int) load { return denseLoad(cfg.seed, cfg.sz, true) }},
	{"sparse_lookup", 2, func(cfg config, n int) load { return sparseLoad(cfg.seed, cfg.sz, n, false) }},
	{"cold_compile", 2, func(cfg config, n int) load { return sparseLoad(cfg.seed, cfg.sz, n, true) }},
	{"view_writes", 1, func(cfg config, _ int) load {
		return &writeLoad{sched: newSchedule(cfg.seed, cfg.sz), root: cfg.scratch}
	}},
	{"restart_replay", 1, func(cfg config, _ int) load {
		return &restartLoad{sched: newSchedule(cfg.seed, cfg.sz), root: cfg.scratch}
	}},
}

// newLoad generates the workload's inputs and oracle answers.
func (w workloadDef) newLoad(cfg config) load { return w.build(cfg, clientCount(w.clients)) }

// clientCount caps a workload's stated client count at the core count: the
// clients share the machine with the server they drive.
func clientCount(stated int) int { return min(stated, runtime.NumCPU()) }

func findWorkload(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// config is what one invocation fixes for every pass it runs.
type config struct {
	seed    int64
	window  time.Duration
	sz      sizes
	minOps  int     // guard: fewest timed operations a reported window may hold
	harness float64 // guard: largest share of the window the harness may take
	scratch string  // data dirs of the durable workloads live here
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the line the benchmark contract asks for.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report is the outcome of one pass over one workload.
type report struct {
	result
	Workload    string         `json:"workload"`
	Pass        string         `json:"pass"` // "timed" or "traced"
	Clients     int            `json:"clients"`
	Samples     int            `json:"samples"`
	PlanDigest  string         `json:"plan_digest"`
	Diagnostics map[string]any `json:"diagnostics"`
}

// timedPass measures one workload's end-to-end metrics with tracing off.
func timedPass(def workloadDef, cfg config) (*report, error) {
	prep := time.Now()
	l := def.newLoad(cfg)
	prepTime := time.Since(prep)
	defer l.stop() // a second stop after the explicit one below is a no-op

	var setups []time.Duration
	for rep := 0; rep < setupReps; rep++ {
		if err := l.stop(); err != nil {
			return nil, err
		}
		t0 := time.Now()
		if err := l.setup(); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t0))
	}
	digest, err := l.planDigest()
	if err != nil {
		return nil, err
	}
	s := drive(l, cfg.window)
	after, err := l.planDigest()
	if err != nil {
		return nil, err
	}
	if after != digest {
		return nil, fmt.Errorf("plan digest moved during the window: %s before, %s after", digest, after)
	}
	verifyErr := l.verify()
	thr, p50, p95 := s.slices(cfg.window)

	r := &report{
		Workload: def.name, Pass: "timed", Clients: l.clients(), PlanDigest: digest,
		Samples: len(s.latencies),
		result: result{
			Correct: verifyErr == nil && s.failed == 0, Attempted: s.attempted, Failed: s.failed,
			Metrics: map[string]metric{
				"throughput_ops_s": {medianF(thr), "ops/s"},
				"latency_p50_ms":   {medianF(p50), "ms"},
				"latency_p95_ms":   {medianF(p95), "ms"},
				"setup_s":          {median(setups).Seconds(), "s"},
			},
		},
		Diagnostics: map[string]any{
			"error_rate":            float64(s.failed) / float64(s.attempted),
			"harness_share":         s.harnessShare(),
			"harness_prep_s":        prepTime.Seconds(),
			"window_s":              s.wall.Seconds(),
			"window_throughput":     s.throughput(),
			"window_latency_p50_ms": ms(median(s.latencies)),
			"window_latency_p95_ms": ms(quantile(s.latencies, 0.95)),
			"window_latency_p99_ms": ms(quantile(s.latencies, 0.99)),
			"slice_latency_p95_ms":  p95,
		},
	}
	if verifyErr != nil {
		r.Diagnostics["verify_error"] = verifyErr.Error()
	}
	l.diagnostics(r.Diagnostics)
	if err := l.stop(); err != nil {
		return nil, err
	}
	if r.Samples < cfg.minOps {
		return nil, fmt.Errorf("only %d timed operations, %d are needed for a p95", r.Samples, cfg.minOps)
	}
	if share := s.harnessShare(); share > cfg.harness {
		return nil, fmt.Errorf("harness took %.0f%% of the window, more than %.0f%%", 100*share, 100*cfg.harness)
	}
	if drift, ok := r.Diagnostics["state_drift"].(float64); ok && drift >= maxDrift {
		return nil, fmt.Errorf("state drifted %.1f%% across the window, the limit is %.0f%%", 100*drift, 100*maxDrift)
	}
	return r, nil
}

// header describes the run: what a reader needs to compare two outputs.
func header(cfg config) map[string]any {
	commit := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, kv := range bi.Settings {
			if kv.Key == "vcs.revision" {
				commit = kv.Value
			}
		}
	}
	clients := map[string]int{}
	for _, w := range workloads {
		clients[w.name] = clientCount(w.clients)
	}
	return map[string]any{
		"commit": commit, "go": runtime.Version(),
		"nproc": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0),
		"seed": cfg.seed, "window_s": cfg.window.Seconds(), "setup_reps": setupReps,
		"warm_up":       "a fixed number of operations per workload, inside setup_s",
		"clients":       clients,
		"fsync":         fsyncPolicy.String(),
		"optimizer_ns":  pinnedConstants,
		"kernel_model":  pinnedModel,
		"min_samples":   cfg.minOps,
		"latency_scope": "sandbox loopback and page cache, not a device",
	}
}

func printHeader(w io.Writer, cfg config) {
	h := header(cfg)
	fmt.Fprintln(w, "# joinmm end-to-end benchmark")
	for _, k := range sortedKeys(h) {
		v, _ := json.Marshal(h[k])
		fmt.Fprintf(w, "# %-13s %s\n", k, v)
	}
}

func printReport(w io.Writer, r *report, defs []metricDef) {
	fmt.Fprintf(w, "\n%s (%s pass, %d client(s), %d samples, %d attempted, %d failed, plan_digest %s)\n",
		r.Workload, r.Pass, r.Clients, r.Samples, r.Attempted, r.Failed, r.PlanDigest)
	for _, d := range defs {
		if m, ok := r.Metrics[d.name]; ok {
			fmt.Fprintf(w, "  %-28s %14.4f %s\n", d.name, m.Value, m.Unit)
		}
	}
	for _, k := range sortedKeys(r.Diagnostics) {
		v, _ := json.Marshal(r.Diagnostics[k])
		fmt.Fprintf(w, "  . %-26s %s\n", k, v)
	}
}

// contractLine prints the result line the benchmark contract asks for.
func contractLine(w io.Writer, r *report) error {
	line, err := json.Marshal(r.result)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

// gap is how much worse b is than a on metric d, as a share of a; negative
// when b is better.
func gap(d metricDef, a, b float64) float64 {
	if d.better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}

// suite runs every workload: `runs` timed passes each, then one traced pass
// unless trace is off. With two or more runs it is the repeatability
// self-check: every end-to-end metric of every later run must lie within
// its bound of the first run's, with the same plan digest.
func suite(cfg config, runs int, trace bool, out io.Writer, outDir string) error {
	printHeader(out, cfg)
	var timed [][]*report
	for run := 0; run < runs; run++ {
		var rs []*report
		for _, def := range workloads {
			r, err := timedPass(def, cfg)
			if err != nil {
				return fmt.Errorf("%s: %w", def.name, err)
			}
			printReport(out, r, endToEnd)
			rs = append(rs, r)
		}
		timed = append(timed, rs)
	}
	var traced []*report
	tr := &tracer{}
	if trace {
		for _, def := range workloads {
			r, err := tracedPass(def, cfg, tr)
			if err != nil {
				return fmt.Errorf("%s: %w", def.name, err)
			}
			printReport(out, r, perLayer)
			traced = append(traced, r)
		}
	}
	if err := writeJSON(filepath.Join(outDir, "results.json"), map[string]any{
		"header": header(cfg), "timed": timed, "traced": traced,
	}); err != nil {
		return err
	}
	if trace {
		if err := writeJSON(filepath.Join(outDir, "trace.json"), tr.layout()); err != nil {
			return err
		}
	}

	var misses []string
	for wi, def := range workloads {
		first := timed[0][wi]
		if !first.Correct {
			misses = append(misses, def.name+": incorrect output")
		}
		for run := 1; run < runs; run++ {
			next := timed[run][wi]
			if wi == 0 && run == 1 {
				fmt.Fprintf(out, "\nrepeatability: run 1 against later runs\n")
			}
			if next.PlanDigest != first.PlanDigest {
				misses = append(misses, fmt.Sprintf("%s: plan digest %s in run 1, %s in run %d",
					def.name, first.PlanDigest, next.PlanDigest, run+1))
			}
			for _, d := range endToEnd {
				a, b := first.Metrics[d.name].Value, next.Metrics[d.name].Value
				g := gap(d, a, b)
				verdict := "ok"
				if math.Abs(g) > d.bound {
					verdict = "MISS"
					misses = append(misses, fmt.Sprintf("%s %s: %.4f then %.4f, gap %+.1f%% exceeds %.0f%%",
						def.name, d.name, a, b, 100*g, 100*d.bound))
				}
				fmt.Fprintf(out, "  %-15s %-18s %12.4f %12.4f %+7.1f%%  bound %2.0f%%  %s\n",
					def.name, d.name, a, b, 100*g, 100*d.bound, verdict)
			}
		}
	}
	if len(misses) > 0 {
		return fmt.Errorf("suite failed:\n  %s", strings.Join(misses, "\n  "))
	}
	return nil
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

func run(args []string, out, errOut io.Writer) error {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(errOut)
	workload := fs.String("workload", "", "run one workload and print the contract's result line (default: the whole suite)")
	seed := fs.Int64("seed", defaultSeed, "seed of the generated inputs")
	seconds := fs.Float64("seconds", defaultSeconds, "length of the measured window")
	trace := fs.Int("trace", -1, "with -workload: 0 timed pass, 1 traced pass; for the suite: 0 skips the traced passes")
	runs := fs.Int("runs", 1, "suite only: timed passes per workload; 2 or more compares them against the bounds")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}
	if *seconds <= 0 || *runs < 1 || *trace < -1 || *trace > 1 {
		return errors.New("want -seconds > 0, -runs ≥ 1 and -trace 0 or 1")
	}
	runtime.GOMAXPROCS(min(runtime.NumCPU(), 4))
	cfg := config{
		seed: *seed, window: time.Duration(*seconds * float64(time.Second)),
		sz: full, minOps: minOperations, harness: maxHarness,
		scratch: filepath.Join(".bench_build", "tmp"),
	}
	if *workload == "" {
		return suite(cfg, *runs, *trace != 0, out, filepath.Join("bench", "out"))
	}
	def, ok := findWorkload(*workload)
	if !ok {
		return fmt.Errorf("unknown workload %q", *workload)
	}
	printHeader(out, cfg)
	var r *report
	var err error
	if *trace == 1 {
		tr := &tracer{}
		if r, err = tracedPass(def, cfg, tr); err == nil {
			printReport(out, r, perLayer)
			err = writeJSON(filepath.Join("bench", "out", "trace.json"), tr.layout())
		}
	} else if r, err = timedPass(def, cfg); err == nil {
		printReport(out, r, endToEnd)
	}
	if err != nil {
		return fmt.Errorf("%s: %w", def.name, err)
	}
	return contractLine(out, r)
}

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}
