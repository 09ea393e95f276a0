package main

import (
	"fmt"
	"runtime"
	"slices"
	"time"
)

// perLayer lists the metrics of the traced pass. Every workload prints all
// of them; a layer a workload never enters reads 0 there.
var perLayer = []metricDef{
	{name: "server.self_ms", unit: "ms", better: "lower"},
	{name: "server.encode_ms", unit: "ms", better: "lower"},
	{name: "server.resp_bytes_per_op", unit: "B", better: "lower"},
	{name: "core.self_ms", unit: "ms", better: "lower"},
	{name: "catalog.prepare_ms", unit: "ms", better: "lower"},
	{name: "catalog.plan_hit_ratio", unit: "ratio", better: "higher"},
	{name: "query.parse_ms", unit: "ms", better: "lower"},
	{name: "query.compile_ms", unit: "ms", better: "lower"},
	{name: "query.execute_ms", unit: "ms", better: "lower"},
	{name: "query.row_ns", unit: "ns", better: "lower"},
	{name: "query.join_per_out", unit: "ratio", better: "lower"},
	{name: "joinproject.fold_ms", unit: "ms", better: "lower"},
	{name: "matrix.mul_ms", unit: "ms", better: "lower"},
	{name: "matrix.word_ops", unit: "count", better: "lower"},
	{name: "optimizer.regret", unit: "ratio", better: "lower"},
	{name: "par.speedup", unit: "ratio", better: "higher"},
	{name: "relation.apply_delta_ms", unit: "ms", better: "lower"},
	{name: "wal.append_ms", unit: "ms", better: "lower"},
	{name: "wal.syncs_per_op", unit: "count", better: "lower"},
	{name: "wal.bytes_per_user_byte", unit: "ratio", better: "lower"},
	{name: "view.maintain_ms", unit: "ms", better: "lower"},
	{name: "view.read_ms", unit: "ms", better: "lower"},
	{name: "snapshot.checkpoints", unit: "count", better: "higher"},
	{name: "snapshot.stall_ms_max", unit: "ms", better: "lower"},
	{name: "core.open_ms", unit: "ms", better: "lower"},
	{name: "snapshot.load_ms", unit: "ms", better: "lower"},
	{name: "wal.replay_ms_per_record", unit: "ms", better: "lower"},
	{name: "runtime.alloc_kb_per_op", unit: "KB", better: "lower"},
	{name: "runtime.allocs_per_op", unit: "count", better: "lower"},
	{name: "runtime.gc_pause_ms", unit: "ms", better: "lower"},
	{name: "trace.overhead", unit: "ratio", better: "lower"},
}

const (
	untracedShare = 0.4 // of the traced pass's seconds: the tracing-off window it compares against
	maxRounds     = 200 // replays per request class; keeps trace.json small on the fast workloads
	minRounds     = 3
)

// moreRounds bounds a replay loop: at least minRounds, at most maxRounds,
// and in between until the deadline.
func moreRounds(round int, deadline time.Time) bool {
	return round < maxRounds && (round < minRounds || time.Now().Before(deadline))
}

// firstError keeps the first error a run of replays meets.
type firstError struct{ err error }

func (f *firstError) note(err error) {
	if f.err == nil {
		f.err = err
	}
}

// span is one timed call into a layer's public API, made from the harness.
// Spans are measured one replay at a time, so a child did not really run
// inside its parent's interval: layout places each child at its parent's
// start plus its earlier siblings' durations, so the file reads as a flame
// graph, and clips a child that ran longer than the room left. dur_us is
// always the measured time; the metrics use it, not the placed interval.
type span struct {
	ID       int     `json:"id"`
	Parent   int     `json:"parent"` // -1: a root
	Op       int     `json:"op"`     // spans replaying one request share it
	Workload string  `json:"workload"`
	Class    string  `json:"class"` // request class within the workload
	Name     string  `json:"name"`
	StartUs  float64 `json:"start_us"`
	EndUs    float64 `json:"end_us"`
	DurUs    float64 `json:"dur_us"`
}

// tracer keeps every span in memory until the run ends.
type tracer struct {
	workload string
	spans    []span
	ops      int
}

// newOp opens a fresh operation id.
func (t *tracer) newOp() int { t.ops++; return t.ops }

// time runs fn and records it as a span under parent (-1 for a root).
func (t *tracer) time(op, parent int, class, name string, fn func()) int {
	t0 := time.Now()
	fn()
	return t.add(op, parent, class, name, time.Since(t0))
}

// add records a span of a known duration.
func (t *tracer) add(op, parent int, class, name string, d time.Duration) int {
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: op, Workload: t.workload,
		Class: class, Name: name, DurUs: float64(d.Nanoseconds()) / 1e3})
	return id
}

// layout places the spans on one timeline and returns them.
func (t *tracer) layout() []span {
	var clock float64
	used := make([]float64, len(t.spans)) // per span: time its placed children cover so far
	for i := range t.spans {
		s := &t.spans[i]
		if s.Parent < 0 {
			s.StartUs, s.EndUs = clock, clock+s.DurUs
			clock = s.EndUs
			continue
		}
		p := &t.spans[s.Parent] // parents are recorded before their children
		s.StartUs = min(p.StartUs+used[s.Parent], p.EndUs)
		s.EndUs = min(s.StartUs+s.DurUs, p.EndUs)
		used[s.Parent] += s.EndUs - s.StartUs
	}
	return t.spans
}

// profile is the per-operation view of one workload's spans: for each span
// name, the sum over request classes of the class's median duration.
type profile struct {
	ms     map[string]float64
	parent map[string]string
}

func (t *tracer) profile() profile {
	byKey := map[[2]string][]float64{}
	p := profile{ms: map[string]float64{}, parent: map[string]string{}}
	for _, s := range t.spans {
		if s.Workload != t.workload {
			continue
		}
		k := [2]string{s.Class, s.Name}
		byKey[k] = append(byKey[k], s.DurUs/1e3)
		if s.Parent >= 0 {
			p.parent[s.Name] = t.spans[s.Parent].Name
		}
	}
	for k, ds := range byKey {
		p.ms[k[1]] += medianF(ds)
	}
	return p
}

// median is the median duration in ms of the current workload's spans of one
// class and name.
func (t *tracer) median(class, name string) float64 {
	var ds []float64
	for _, s := range t.spans {
		if s.Workload == t.workload && s.Class == class && s.Name == name {
			ds = append(ds, s.DurUs/1e3)
		}
	}
	return medianF(ds)
}

// first returns the id of the current workload's first span of one class and
// name, or -1.
func (t *tracer) first(class, name string) int {
	for _, s := range t.spans {
		if s.Workload == t.workload && s.Class == class && s.Name == name {
			return s.ID
		}
	}
	return -1
}

// self is a span's time less what its children account for.
func (p profile) self(name string) float64 {
	out := p.ms[name]
	for child, parent := range p.parent {
		if parent == name {
			out -= p.ms[child]
		}
	}
	return max(out, 0)
}

// unattributed lists the parents whose own time is more than a quarter of
// their total: where tracing inside the program should look first.
func (p profile) unattributed() []string {
	var parents, out []string
	for _, parent := range p.parent {
		if !slices.Contains(parents, parent) {
			parents = append(parents, parent)
		}
	}
	slices.Sort(parents)
	for _, parent := range parents {
		total, self := p.ms[parent], p.self(parent)
		if total > 0 && self/total > 0.25 {
			out = append(out, fmt.Sprintf("%s: self %.3f ms of %.3f ms (%.0f%%)", parent, self, total, 100*self/total))
		}
	}
	return out
}

// tracedPass runs one workload with tracing: a short untraced window for the
// counters and the overhead comparison, then the replays.
func tracedPass(def workloadDef, cfg config, tr *tracer) (*report, error) {
	l := def.newLoad(cfg)
	defer l.stop() // a second stop after the explicit one below is a no-op
	if err := l.setup(); err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	digest, err := l.planDigest()
	if err != nil {
		return nil, err
	}
	s := drive(l, time.Duration(untracedShare*float64(cfg.window)))
	if len(s.latencies) == 0 {
		return nil, fmt.Errorf("no operation completed in the untraced window")
	}
	tr.workload = def.name
	layers, err := l.trace(tr, s, cfg.window-s.wall)
	if err != nil {
		return nil, err
	}
	prof := tr.profile()
	ops := float64(len(s.latencies))
	layers["runtime.alloc_kb_per_op"] = float64(s.mem.allocBytes) / 1024 / ops
	layers["runtime.allocs_per_op"] = float64(s.mem.mallocs) / ops
	layers["runtime.gc_pause_ms"] = ms(s.mem.gcPause)
	verifyErr := l.verify()

	r := &report{
		Workload: def.name, Pass: "traced", Clients: l.clients(), PlanDigest: digest,
		Samples: len(s.latencies),
		result: result{
			Correct: verifyErr == nil && s.failed == 0, Attempted: s.attempted, Failed: s.failed,
			Metrics: map[string]metric{},
		},
		Diagnostics: map[string]any{
			"unattributed":      prof.unattributed(),
			"span_ms_per_op":    prof.ms,
			"untraced_window_s": s.wall.Seconds(),
			"gomaxprocs":        runtime.GOMAXPROCS(0),
		},
	}
	if verifyErr != nil {
		r.Diagnostics["verify_error"] = verifyErr.Error()
	}
	for _, d := range perLayer {
		r.Metrics[d.name] = metric{layers[d.name], d.unit}
	}
	return r, l.stop()
}
