package experiments

import (
	"cmp"
	"context"
	"encoding/json"
	"fmt"
	"maps"
	"math/rand"
	"runtime"
	"slices"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/relation"
)

// ViewBench is the maintenance-vs-recompute timing of one registered view
// under a stream of update batches: the average time one mutation batch
// takes end to end (catalog swap + delta propagation into the view) against
// the average time a from-scratch recompute of the same query takes.
type ViewBench struct {
	Query       string `json:"query"`
	Mode        string `json:"mode"`
	MaintainNs  int64  `json:"maintain_ns_per_batch"`
	RecomputeNs int64  `json:"recompute_ns_per_batch"`
	// Speedup is RecomputeNs / MaintainNs: how much cheaper keeping the
	// view fresh by deltas is than re-running the query per batch.
	Speedup   float64 `json:"speedup"`
	Batches   int     `json:"batches"`
	BatchSize int     `json:"batch_size"`
	Rows      int     `json:"rows"`
	// Reps is how many full update-stream runs the median was taken over;
	// MaintainNs and RecomputeNs are the median run's.
	Reps int `json:"reps,omitempty"`
}

// ViewSnapshot is the machine-readable view-maintenance trajectory
// cmd/joinbench writes in -views mode (BENCH_views.json).
type ViewSnapshot struct {
	GoOS       string               `json:"goos"`
	GoArch     string               `json:"goarch"`
	NumCPU     int                  `json:"num_cpu"`
	Scale      float64              `json:"scale"`
	Timestamp  string               `json:"timestamp"`
	Benchmarks map[string]ViewBench `json:"benchmarks"`
}

// DefaultViewSuite is the canned -views suite: one view per maintenance
// shape (two-path kernel folds, star arm re-folds, generic tree
// backtracking) over the skewed community graphs of the bench catalog.
func DefaultViewSuite() map[string]string {
	return map[string]string{
		"vp_twopath": "VP(x, z) :- R(x, y), S(y, z)",
		"vs_star":    "VS(a, b, c) :- R(a, y), S(b, y), T(c, y)",
		"vc_chain":   "VC(a, d) :- R(a, b), S(b, c), T(c, d)",
	}
}

// viewBenchBatches and viewBenchBatchSize shape the update stream: enough
// batches to average out noise, small enough batches to model online
// updates.
const (
	viewBenchBatches   = 24
	viewBenchBatchSize = 32
)

// MeasureView registers src as a view on a fresh engine over the synthetic
// community catalog and streams mixed insert/delete batches at it, timing
// maintenance against from-scratch recompute.
func MeasureView(name, src string, scale float64) (ViewBench, error) {
	rng := rand.New(rand.NewSource(2024))
	eng := core.NewEngine()
	n := int(float64(6000) * scale)
	if n < 200 {
		n = 200
	}
	domain := int32(0)
	for i, rel := range []string{"R", "S", "T"} {
		r := dataset.Community(n, 24+4*i, int64(101+i))
		if _, err := eng.Register(rel, r.Pairs()); err != nil {
			return ViewBench{}, err
		}
		if d := int32(n); d > domain {
			domain = d
		}
	}
	v, err := eng.RegisterView(context.Background(), name, src)
	if err != nil {
		return ViewBench{}, err
	}
	relNames := referencedRels(src)

	vb := ViewBench{
		Query: v.Text(), Mode: v.Mode(),
		Batches: viewBenchBatches, BatchSize: viewBenchBatchSize,
	}

	// The update stream alternates insert-heavy and delete-heavy batches
	// over the view's base relations, timing the whole Mutate (catalog swap
	// + synchronous view maintenance). Before each batch the view's query
	// is recomputed cold — Prepare + Execute, what serving the view per
	// request would cost without maintenance — under a fresh text alias,
	// since the per-relation-versioned plan cache would hit between
	// mutations of other relations. The two are timed side by side, so a
	// stretch of machine noise weighs on both terms of the ratio alike.
	runtime.GC()
	var maintain, recompute time.Duration
	for b := 0; b < viewBenchBatches; b++ {
		start := time.Now()
		if _, err := eng.Query(fmt.Sprintf("B%d%s", b, src[1:])); err != nil {
			return ViewBench{}, err
		}
		recompute += time.Since(start)

		rel := relNames[b%len(relNames)]
		var ins, del []relation.Pair
		if b%2 == 0 {
			for i := 0; i < viewBenchBatchSize; i++ {
				ins = append(ins, relation.Pair{X: rng.Int31n(domain), Y: rng.Int31n(domain)})
			}
		} else {
			r, _ := eng.Catalog().Get(rel)
			ps := r.Pairs()
			for i := 0; i < viewBenchBatchSize && len(ps) > 0; i++ {
				del = append(del, ps[rng.Intn(len(ps))])
			}
		}
		start = time.Now()
		if _, err := eng.Mutate(rel, ins, del); err != nil {
			return ViewBench{}, err
		}
		maintain += time.Since(start)
	}
	vb.RecomputeNs = recompute.Nanoseconds() / int64(viewBenchBatches)
	vb.MaintainNs = maintain.Nanoseconds() / int64(viewBenchBatches)
	if vb.MaintainNs > 0 {
		vb.Speedup = float64(vb.RecomputeNs) / float64(vb.MaintainNs)
	}
	vb.Rows = v.Rows()
	return vb, nil
}

// referencedRels extracts the base relations of the canned view queries
// (they only use R, S, T).
func referencedRels(src string) []string {
	var out []string
	for _, name := range []string{"R", "S", "T"} {
		if containsAtom(src, name) {
			out = append(out, name)
		}
	}
	return out
}

// containsAtom reports whether src contains an atom over rel, i.e. "rel(".
func containsAtom(src, rel string) bool {
	for i := 0; i+len(rel) < len(src); i++ {
		if src[i:i+len(rel)] == rel && src[i+len(rel)] == '(' &&
			(i == 0 || !isIdent(src[i-1])) {
			return true
		}
	}
	return false
}

func isIdent(c byte) bool {
	return c == '_' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9')
}

// viewBenchReps is the number of fresh-engine runs per view. Each run
// measures recompute and maintenance moments apart, and the runs of the
// suite's views take turns, so every view samples the whole measurement
// window; the run with the median speedup ratio is kept, so a few runs
// disturbed by machine noise cannot move it.
const viewBenchReps = 51

// medianRun returns the run with the median speedup (the lower of the two
// middle ones for an even count), with Reps set to the number of runs. The
// row counts and strategy mode are deterministic across runs; only the
// timings vary.
func medianRun(runs []ViewBench) ViewBench {
	slices.SortFunc(runs, func(a, b ViewBench) int { return cmp.Compare(a.Speedup, b.Speedup) })
	mid := runs[(len(runs)-1)/2]
	mid.Reps = len(runs)
	return mid
}

// ViewRegression is one view whose maintenance got slower relative to
// recomputing it than the baseline allows.
type ViewRegression struct {
	Name     string
	Baseline float64 // baseline speedup (recompute ÷ maintain)
	Current  float64 // current speedup
	Ratio    float64 // Baseline ÷ Current
}

// String renders the regression as one human-readable gate-failure line.
func (r ViewRegression) String() string {
	return fmt.Sprintf("%s: speedup over recompute %.2f× → %.2f× (maintenance %.1f%% slower relative to recompute)",
		r.Name, r.Baseline, r.Current, (r.Ratio-1)*100)
}

// CompareViewSnapshots diffs two BENCH_views.json snapshots and returns every
// view present in both whose speedup — recompute time over maintenance time,
// both measured in the same process minutes apart — fell by more than tol.
// The ratio, unlike either absolute time, does not move when the whole
// machine gets slower or faster between the two snapshots. It does move when
// a change makes recompute itself faster: such a change re-baselines the
// snapshot it ships with. Views present in only one snapshot are ignored, so
// extending the suite never fails the gate; snapshots at different scales
// are incomparable and error out.
func CompareViewSnapshots(baseline, current []byte, tol float64) ([]ViewRegression, error) {
	var old, cur ViewSnapshot
	if err := json.Unmarshal(baseline, &old); err != nil {
		return nil, fmt.Errorf("baseline snapshot: %w", err)
	}
	if err := json.Unmarshal(current, &cur); err != nil {
		return nil, fmt.Errorf("current snapshot: %w", err)
	}
	if old.Scale != cur.Scale {
		return nil, fmt.Errorf("snapshot scales differ: baseline %g vs current %g", old.Scale, cur.Scale)
	}
	var regs []ViewRegression
	for name, ob := range old.Benchmarks {
		cb, ok := cur.Benchmarks[name]
		if !ok || ob.Speedup <= 0 || cb.Speedup <= 0 {
			continue
		}
		if ratio := ob.Speedup / cb.Speedup; ratio > 1+tol {
			regs = append(regs, ViewRegression{Name: name, Baseline: ob.Speedup, Current: cb.Speedup, Ratio: ratio})
		}
	}
	sort.Slice(regs, func(i, j int) bool { return regs[i].Ratio > regs[j].Ratio })
	return regs, nil
}

// ViewBenchSnapshot measures the canned view suite (the median of
// viewBenchReps runs per view, the views taking turns) and renders the
// BENCH_views.json snapshot.
func ViewBenchSnapshot(scale float64) ([]byte, error) {
	snap := ViewSnapshot{
		GoOS:       runtime.GOOS,
		GoArch:     runtime.GOARCH,
		NumCPU:     runtime.NumCPU(),
		Scale:      scale,
		Timestamp:  time.Now().UTC().Format(time.RFC3339),
		Benchmarks: map[string]ViewBench{},
	}
	suite := DefaultViewSuite()
	names := slices.Sorted(maps.Keys(suite))
	runs := map[string][]ViewBench{}
	for range viewBenchReps {
		for _, name := range names {
			vb, err := MeasureView(name, suite[name], scale)
			if err != nil {
				return nil, fmt.Errorf("view %q: %w", name, err)
			}
			runs[name] = append(runs[name], vb)
		}
	}
	for _, name := range names {
		snap.Benchmarks[name] = medianRun(runs[name])
	}
	return json.MarshalIndent(snap, "", "  ")
}

// RenderViewSnapshot pretty-prints a view snapshot as a table.
func RenderViewSnapshot(data []byte) (string, error) {
	var snap ViewSnapshot
	if err := json.Unmarshal(data, &snap); err != nil {
		return "", err
	}
	keys := make([]string, 0, len(snap.Benchmarks))
	for k := range snap.Benchmarks {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := fmt.Sprintf("%-12s %-40s %14s %14s %8s %8s\n",
		"view", "query", "maintain ns", "recompute ns", "speedup", "rows")
	for _, k := range keys {
		b := snap.Benchmarks[k]
		out += fmt.Sprintf("%-12s %-40.40s %14d %14d %7.1fx %8d\n",
			k, b.Query, b.MaintainNs, b.RecomputeNs, b.Speedup, b.Rows)
	}
	return out, nil
}
