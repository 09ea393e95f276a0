package obs

import (
	"math"
	"strings"
	"sync"
	"testing"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("test_ops_total", "ops")
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	g := r.Gauge("test_depth", "depth")
	g.Set(3.5)
	g.Add(-1)
	if got := g.Value(); got != 2.5 {
		t.Fatalf("gauge = %g, want 2.5", got)
	}
	// Re-registration returns the same instance.
	if r.Counter("test_ops_total", "ops") != c {
		t.Fatal("re-registration returned a different counter")
	}
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("test_seconds", "latency", []float64{0.01, 0.1, 1})
	for _, v := range []float64{0.005, 0.05, 0.5, 5} {
		h.Observe(v)
	}
	if h.Count() != 4 {
		t.Fatalf("count = %d, want 4", h.Count())
	}
	if math.Abs(h.Sum()-5.555) > 1e-9 {
		t.Fatalf("sum = %g, want 5.555", h.Sum())
	}
	var sb strings.Builder
	if _, err := r.WriteTo(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		`test_seconds_bucket{le="0.01"} 1`,
		`test_seconds_bucket{le="0.1"} 2`,
		`test_seconds_bucket{le="1"} 3`,
		`test_seconds_bucket{le="+Inf"} 4`,
		`test_seconds_count 4`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}
}

func TestVecChildrenAndEscaping(t *testing.T) {
	r := NewRegistry()
	v := r.CounterVec("test_requests_total", "reqs", "route", "code")
	v.With("/query", "200").Add(2)
	v.With("/query", "500").Inc()
	v.With(`/weird"path`+"\n", "200").Inc()
	var sb strings.Builder
	if _, err := r.WriteTo(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		`test_requests_total{route="/query",code="200"} 2`,
		`test_requests_total{route="/query",code="500"} 1`,
		`test_requests_total{route="/weird\"path\n",code="200"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}
	// The With pointer is stable — hot paths may cache it.
	if v.With("/query", "200") != v.With("/query", "200") {
		t.Fatal("With returned distinct children for the same labels")
	}
}

func TestKindMismatchPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("test_total", "x")
	defer func() {
		if recover() == nil {
			t.Fatal("registering test_total as a gauge should panic")
		}
	}()
	r.Gauge("test_total", "x")
}

// TestEncoderRoundTrips guards the encoder with the parser: everything the
// registry emits must parse back cleanly, with types intact.
func TestEncoderRoundTrips(t *testing.T) {
	r := NewRegistry()
	r.Counter("rt_ops_total", "ops").Add(7)
	r.Gauge("rt_depth", "depth").Set(-1.25)
	r.HistogramVec("rt_seconds", "latency", nil, "op").With("fold").Observe(0.002)
	r.CounterVec("rt_labeled_total", "labeled", "kind").With("a b").Inc()
	var sb strings.Builder
	if _, err := r.WriteTo(&sb); err != nil {
		t.Fatal(err)
	}
	exp, err := ParseExposition(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatalf("encoder output does not parse: %v\n%s", err, sb.String())
	}
	if exp.Types["rt_ops_total"] != "counter" || exp.Types["rt_depth"] != "gauge" || exp.Types["rt_seconds"] != "histogram" {
		t.Fatalf("types = %v", exp.Types)
	}
	if v, ok := exp.Value("rt_ops_total"); !ok || v != 7 {
		t.Fatalf("rt_ops_total = %g, %v", v, ok)
	}
	if v, ok := exp.Value(`rt_seconds_bucket{op="fold",le="+Inf"}`); !ok || v != 1 {
		t.Fatalf("+Inf bucket = %g, %v", v, ok)
	}
}

func TestParserRejectsMalformed(t *testing.T) {
	cases := map[string]string{
		"bad value":          "foo_total abc\n",
		"duplicate series":   "foo_total 1\nfoo_total 2\n",
		"bad label pair":     `foo_total{route} 1` + "\n",
		"unquoted label":     `foo_total{route=query} 1` + "\n",
		"unknown type":       "# TYPE foo_total widget\n",
		"type after sample":  "foo_total 1\n# TYPE foo_total counter\n",
		"missing inf bucket": "# TYPE h histogram\nh_bucket{le=\"1\"} 1\nh_count 1\nh_sum 0.5\n",
		"non-cumulative": "# TYPE h histogram\nh_bucket{le=\"1\"} 5\nh_bucket{le=\"2\"} 3\n" +
			"h_bucket{le=\"+Inf\"} 5\nh_count 5\nh_sum 1\n",
		"count mismatch": "# TYPE h histogram\nh_bucket{le=\"+Inf\"} 5\nh_count 4\nh_sum 1\n",
	}
	for name, in := range cases {
		if err := ValidateExposition(strings.NewReader(in)); err == nil {
			t.Errorf("%s: parser accepted %q", name, in)
		}
	}
	ok := "# HELP foo_total fine\n# TYPE foo_total counter\nfoo_total{a=\"b\"} 1 1700000000\n"
	if err := ValidateExposition(strings.NewReader(ok)); err != nil {
		t.Errorf("parser rejected valid input: %v", err)
	}
}

// TestConcurrency exercises every metric type from many goroutines; run
// under -race this is the package's data-race gate.
func TestConcurrency(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("cc_total", "x")
	g := r.Gauge("cc_gauge", "x")
	h := r.Histogram("cc_seconds", "x", nil)
	v := r.CounterVec("cc_vec_total", "x", "k")
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(n int) {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				c.Inc()
				g.Add(1)
				h.Observe(float64(j) * 1e-4)
				v.With([]string{"a", "b", "c"}[j%3]).Inc()
				if j%100 == 0 {
					var sb strings.Builder
					r.WriteTo(&sb)
				}
			}
		}(i)
	}
	wg.Wait()
	if c.Value() != 8000 {
		t.Fatalf("counter = %d, want 8000", c.Value())
	}
	if g.Value() != 8000 {
		t.Fatalf("gauge = %g, want 8000", g.Value())
	}
	if h.Count() != 8000 {
		t.Fatalf("histogram count = %d, want 8000", h.Count())
	}
	var sb strings.Builder
	if _, err := r.WriteTo(&sb); err != nil {
		t.Fatal(err)
	}
	if err := ValidateExposition(strings.NewReader(sb.String())); err != nil {
		t.Fatalf("post-concurrency exposition invalid: %v", err)
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }
