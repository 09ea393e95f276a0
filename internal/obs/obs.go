// Package obs is the engine's dependency-free observability core: a
// process-wide registry of atomic counters, gauges and fixed-bucket
// histograms with a hand-rolled Prometheus text-exposition encoder (and a
// matching parser/validator guarding the encoder against format drift).
//
// Design constraints, in order:
//
//   - Hot-path cost. A counter add is one atomic add; a histogram observe is
//     one atomic add per bucket boundary crossed plus a CAS for the float
//     sum. Vector lookups (label resolution) take a map read under RLock —
//     hot call sites resolve their concrete child once at init and keep the
//     pointer, so kernels and the executor never touch a map per operation.
//   - No dependencies. The package imports only the standard library, so
//     every layer (matrix kernels included) can instrument itself without
//     dependency cycles or a vendored client library.
//   - One registry. Default() is the process-wide registry all engine
//     subsystems register into; GET /metrics encodes it. Tests assert on
//     deltas, never absolutes, since the registry is process-shared.
//
// Metric names follow Prometheus conventions (joinmm_ prefix, _total for
// counters, base-unit _seconds/_bytes suffixes). The full metric reference
// lives in README.md.
package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Kind is a metric family's type as the exposition format spells it.
type Kind string

// The metric kinds the registry supports.
const (
	KindCounter   Kind = "counter"
	KindGauge     Kind = "gauge"
	KindHistogram Kind = "histogram"
)

// DefBuckets are the default histogram boundaries in seconds, spanning
// microsecond kernel calls to multi-second recoveries.
var DefBuckets = []float64{
	1e-5, 2.5e-5, 1e-4, 2.5e-4, 1e-3, 2.5e-3, 1e-2, 2.5e-2, 0.1, 0.25, 1, 2.5, 10,
}

// Counter is a monotonically increasing value. The zero value is ready to
// use; all methods are safe for concurrent use.
type Counter struct {
	v atomic.Uint64
}

// Add increments the counter by n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v.Add(1) }

// Set overwrites the counter with an externally tracked cumulative total.
// It exists for mirroring pre-existing monotonic stats (plan-cache hits, WAL
// appends) into the registry at scrape time; instrumented-in-place counters
// should only ever Add.
func (c *Counter) Set(total uint64) { c.v.Store(total) }

// Value returns the current total.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is a float64 value that can go up and down. The zero value is ready
// to use; all methods are safe for concurrent use.
type Gauge struct {
	bits atomic.Uint64
}

// Set replaces the gauge value.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add adjusts the gauge by delta (negative to decrease).
func (g *Gauge) Add(delta float64) {
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + delta)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Value returns the current gauge value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Histogram is a fixed-bucket histogram of float64 observations. The
// boundaries are upper bounds (le); observations above the last boundary
// land in the implicit +Inf bucket. All methods are safe for concurrent use.
type Histogram struct {
	bounds []float64
	counts []atomic.Uint64 // len(bounds)+1; last is +Inf
	sum    atomic.Uint64   // float64 bits
	count  atomic.Uint64
}

func newHistogram(bounds []float64) *Histogram {
	bs := append([]float64(nil), bounds...)
	sort.Float64s(bs)
	return &Histogram{bounds: bs, counts: make([]atomic.Uint64, len(bs)+1)}
}

// Observe records one observation.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, next) {
			return
		}
	}
}

// ObserveSince records the seconds elapsed since start.
func (h *Histogram) ObserveSince(start time.Time) {
	h.Observe(time.Since(start).Seconds())
}

// Sum returns the sum of all observations.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sum.Load()) }

// family is one named metric with a fixed label schema and one child per
// label-value combination.
type family struct {
	name   string
	help   string
	kind   Kind
	labels []string
	bounds []float64 // histograms only

	mu       sync.RWMutex
	children map[string]*child
}

// child is one (label values → metric) instance of a family.
type child struct {
	labelVals []string
	counter   *Counter
	gauge     *Gauge
	hist      *Histogram
}

// childKey joins label values into a map key. Label values may contain any
// byte except 0xff (reserved as the joiner); engine label values are short
// enum-like strings, so the restriction never binds.
func childKey(vals []string) string { return strings.Join(vals, "\xff") }

func (f *family) get(vals []string) *child {
	if len(vals) != len(f.labels) {
		panic(fmt.Sprintf("obs: metric %s wants %d label values, got %d", f.name, len(f.labels), len(vals)))
	}
	k := childKey(vals)
	f.mu.RLock()
	c := f.children[k]
	f.mu.RUnlock()
	if c != nil {
		return c
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if c = f.children[k]; c != nil {
		return c
	}
	c = &child{labelVals: append([]string(nil), vals...)}
	switch f.kind {
	case KindCounter:
		c.counter = &Counter{}
	case KindGauge:
		c.gauge = &Gauge{}
	case KindHistogram:
		c.hist = newHistogram(f.bounds)
	}
	f.children[k] = c
	return c
}

// Registry holds metric families and encodes them in Prometheus text
// exposition format. All methods are safe for concurrent use.
type Registry struct {
	mu       sync.RWMutex
	families map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return &Registry{families: map[string]*family{}} }

// defaultRegistry is the process-wide registry behind Default.
var defaultRegistry = NewRegistry()

// Default returns the process-wide registry every engine subsystem registers
// into; GET /metrics serves it.
func Default() *Registry { return defaultRegistry }

// register returns the family bound to name, creating it on first use.
// Re-registration with the same kind and label schema returns the existing
// family (so multiple engines in one process share series); a kind or schema
// mismatch is a programming error and panics.
func (r *Registry) register(name, help string, kind Kind, labels []string, bounds []float64) *family {
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.families[name]; ok {
		if f.kind != kind || len(f.labels) != len(labels) {
			panic(fmt.Sprintf("obs: metric %s re-registered as %s(%d labels), was %s(%d labels)",
				name, kind, len(labels), f.kind, len(f.labels)))
		}
		return f
	}
	f := &family{
		name: name, help: help, kind: kind,
		labels:   append([]string(nil), labels...),
		bounds:   bounds,
		children: map[string]*child{},
	}
	r.families[name] = f
	return f
}

// Counter returns the label-less counter bound to name, registering it on
// first use.
func (r *Registry) Counter(name, help string) *Counter {
	return r.register(name, help, KindCounter, nil, nil).get(nil).counter
}

// Gauge returns the label-less gauge bound to name, registering it on first
// use.
func (r *Registry) Gauge(name, help string) *Gauge {
	return r.register(name, help, KindGauge, nil, nil).get(nil).gauge
}

// Histogram returns the label-less histogram bound to name, registering it
// on first use. bounds nil means DefBuckets.
func (r *Registry) Histogram(name, help string, bounds []float64) *Histogram {
	if bounds == nil {
		bounds = DefBuckets
	}
	return r.register(name, help, KindHistogram, nil, bounds).get(nil).hist
}

// CounterVec is a counter family keyed by label values.
type CounterVec struct{ f *family }

// CounterVec returns the labeled counter family bound to name.
func (r *Registry) CounterVec(name, help string, labels ...string) *CounterVec {
	return &CounterVec{f: r.register(name, help, KindCounter, labels, nil)}
}

// With returns the counter for the given label values (in schema order),
// creating it on first use. Hot call sites should resolve once and keep the
// pointer.
func (v *CounterVec) With(labelVals ...string) *Counter { return v.f.get(labelVals).counter }

// GaugeVec is a gauge family keyed by label values.
type GaugeVec struct{ f *family }

// GaugeVec returns the labeled gauge family bound to name.
func (r *Registry) GaugeVec(name, help string, labels ...string) *GaugeVec {
	return &GaugeVec{f: r.register(name, help, KindGauge, labels, nil)}
}

// With returns the gauge for the given label values, creating it on first
// use.
func (v *GaugeVec) With(labelVals ...string) *Gauge { return v.f.get(labelVals).gauge }

// HistogramVec is a histogram family keyed by label values.
type HistogramVec struct{ f *family }

// HistogramVec returns the labeled histogram family bound to name. bounds
// nil means DefBuckets.
func (r *Registry) HistogramVec(name, help string, bounds []float64, labels ...string) *HistogramVec {
	if bounds == nil {
		bounds = DefBuckets
	}
	return &HistogramVec{f: r.register(name, help, KindHistogram, labels, bounds)}
}

// With returns the histogram for the given label values, creating it on
// first use.
func (v *HistogramVec) With(labelVals ...string) *Histogram { return v.f.get(labelVals).hist }

// WriteTo encodes the registry in Prometheus text exposition format
// (version 0.0.4): families sorted by name, one # HELP and # TYPE line each,
// children sorted by label values, histograms expanded into cumulative
// _bucket/_sum/_count series.
func (r *Registry) WriteTo(w io.Writer) (int64, error) {
	r.mu.RLock()
	names := make([]string, 0, len(r.families))
	for name := range r.families {
		names = append(names, name)
	}
	fams := make([]*family, 0, len(names))
	sort.Strings(names)
	for _, name := range names {
		fams = append(fams, r.families[name])
	}
	r.mu.RUnlock()

	var b strings.Builder
	for _, f := range fams {
		f.encode(&b)
	}
	n, err := io.WriteString(w, b.String())
	return int64(n), err
}

// encode renders one family.
func (f *family) encode(b *strings.Builder) {
	f.mu.RLock()
	keys := make([]string, 0, len(f.children))
	for k := range f.children {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	children := make([]*child, 0, len(keys))
	for _, k := range keys {
		children = append(children, f.children[k])
	}
	f.mu.RUnlock()
	if len(children) == 0 {
		return
	}

	fmt.Fprintf(b, "# HELP %s %s\n", f.name, escapeHelp(f.help))
	fmt.Fprintf(b, "# TYPE %s %s\n", f.name, f.kind)
	for _, c := range children {
		switch f.kind {
		case KindCounter:
			fmt.Fprintf(b, "%s%s %s\n", f.name, labelString(f.labels, c.labelVals, "", ""), formatFloat(float64(c.counter.Value())))
		case KindGauge:
			fmt.Fprintf(b, "%s%s %s\n", f.name, labelString(f.labels, c.labelVals, "", ""), formatFloat(c.gauge.Value()))
		case KindHistogram:
			cum := uint64(0)
			for i, bound := range c.hist.bounds {
				cum += c.hist.counts[i].Load()
				fmt.Fprintf(b, "%s_bucket%s %d\n", f.name,
					labelString(f.labels, c.labelVals, "le", formatFloat(bound)), cum)
			}
			cum += c.hist.counts[len(c.hist.bounds)].Load()
			fmt.Fprintf(b, "%s_bucket%s %d\n", f.name, labelString(f.labels, c.labelVals, "le", "+Inf"), cum)
			fmt.Fprintf(b, "%s_sum%s %s\n", f.name, labelString(f.labels, c.labelVals, "", ""), formatFloat(c.hist.Sum()))
			fmt.Fprintf(b, "%s_count%s %d\n", f.name, labelString(f.labels, c.labelVals, "", ""), cum)
		}
	}
}

// labelString renders {k="v",...}, optionally appending one extra pair (the
// histogram le label); empty when there are no labels at all.
func labelString(names, vals []string, extraName, extraVal string) string {
	if len(names) == 0 && extraName == "" {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, n := range names {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(n)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(vals[i]))
		b.WriteByte('"')
	}
	if extraName != "" {
		if len(names) > 0 {
			b.WriteByte(',')
		}
		b.WriteString(extraName)
		b.WriteString(`="`)
		b.WriteString(extraVal)
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

// escapeLabel escapes a label value per the exposition format.
func escapeLabel(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	s = strings.ReplaceAll(s, "\n", `\n`)
	return strings.ReplaceAll(s, `"`, `\"`)
}

// escapeHelp escapes a help string per the exposition format.
func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

// formatFloat renders a sample value the way Prometheus clients do: shortest
// round-trip representation, integers without a decimal point.
func formatFloat(v float64) string {
	if math.IsInf(v, 1) {
		return "+Inf"
	}
	if math.IsInf(v, -1) {
		return "-Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}
