package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"slices"
	"testing"
	"time"

	"repro/internal/relation"
)

// tiny shrinks every count so the whole suite runs in a few seconds.
var tiny = sizes{
	denseSets: 40, denseDomain: 150, denseMinSet: 10, denseMaxSet: 40,
	denseSkew: 1.2, starSets: 8, chainElems: 30,
	sparseNodes: 1500, hitPool: 4, coldPool: 256, coldVerify: 3,
	communityTuples: 300, batch: 8, outstanding: 3, checkpointEvery: 16, walTail: 6,
}

// smokeConfig runs a workload at a tiny scale for a fraction of a second. At
// that scale operations are so short that restoring a data dir outweighs
// them, so the harness guard is off.
func smokeConfig(t *testing.T) config {
	return config{seed: 3, window: 300 * time.Millisecond, sz: tiny, minOps: 1, harness: 1, scratch: t.TempDir()}
}

// TestSuiteSmoke runs both passes of every workload with the oracle, the
// drift check and the output schema on, and checks the span tree.
func TestSuiteSmoke(t *testing.T) {
	tr := &tracer{}
	for _, def := range workloads {
		cfg := smokeConfig(t)
		timed, err := timedPass(def, cfg)
		if err != nil {
			t.Fatalf("%s timed: %v", def.name, err)
		}
		traced, err := tracedPass(def, cfg, tr)
		if err != nil {
			t.Fatalf("%s traced: %v", def.name, err)
		}
		for pass, r := range map[string]*report{"timed": timed, "traced": traced} {
			if !r.Correct || r.Failed != 0 || r.Attempted < 1 {
				t.Errorf("%s %s: correct=%v attempted=%d failed=%d (%v)",
					def.name, pass, r.Correct, r.Attempted, r.Failed, r.Diagnostics["verify_error"])
			}
			if r.PlanDigest == "" || r.PlanDigest != timed.PlanDigest {
				t.Errorf("%s %s: plan digest %q, the timed pass had %q", def.name, pass, r.PlanDigest, timed.PlanDigest)
			}
		}
		checkMetrics(t, def.name, timed, endToEnd, true)
		checkMetrics(t, def.name, traced, perLayer, false)
		if drift, ok := timed.Diagnostics["state_drift"]; def.name == "view_writes" && (!ok || drift.(float64) >= maxDrift) {
			t.Errorf("view_writes: state_drift %v", drift)
		}
	}

	spans := tr.layout()
	if len(spans) == 0 {
		t.Fatal("the traced passes recorded no span")
	}
	roots := 0
	for _, s := range spans {
		if s.EndUs < s.StartUs || s.DurUs < 0 {
			t.Fatalf("span %d (%s) runs backwards: %+v", s.ID, s.Name, s)
		}
		if s.Parent == -1 {
			roots++
			continue
		}
		if s.Parent < 0 || s.Parent >= s.ID {
			t.Fatalf("span %d (%s) has parent %d, neither a root nor an earlier span", s.ID, s.Name, s.Parent)
		}
		p := spans[s.Parent]
		if p.Workload != s.Workload || s.StartUs < p.StartUs || s.EndUs > p.EndUs {
			t.Fatalf("span %d (%s) [%f, %f] lies outside its parent %s [%f, %f]",
				s.ID, s.Name, s.StartUs, s.EndUs, p.Name, p.StartUs, p.EndUs)
		}
	}
	if roots == 0 {
		t.Fatal("no root span")
	}
}

// checkMetrics holds a report to the output schema: exactly the listed
// metrics, each with its unit and a finite value, positive where the
// benchmark contract compares ratios.
func checkMetrics(t *testing.T, workload string, r *report, defs []metricDef, positive bool) {
	t.Helper()
	if len(r.Metrics) != len(defs) {
		t.Errorf("%s %s: %d metrics, want %d", workload, r.Pass, len(r.Metrics), len(defs))
	}
	for _, d := range defs {
		m, ok := r.Metrics[d.name]
		switch {
		case !ok:
			t.Errorf("%s %s: metric %s is missing", workload, r.Pass, d.name)
		case m.Unit != d.unit:
			t.Errorf("%s %s: %s has unit %q, want %q", workload, r.Pass, d.name, m.Unit, d.unit)
		case math.IsNaN(m.Value) || math.IsInf(m.Value, 0) || positive && m.Value <= 0:
			t.Errorf("%s %s: %s = %v", workload, r.Pass, d.name, m.Value)
		}
	}
	var line bytes.Buffer
	if err := contractLine(&line, r); err != nil {
		t.Fatal(err)
	}
	var got map[string]json.RawMessage
	if err := json.Unmarshal(line.Bytes(), &got); err != nil {
		t.Fatalf("result line is not JSON: %v", err)
	}
	keys := sortedKeys(got)
	if want := []string{"attempted", "correct", "failed", "metrics"}; !slices.Equal(keys, want) {
		t.Errorf("result line has keys %v, want %v", keys, want)
	}
}

// inputs returns every relation each workload would hand the program.
func inputs(seed int64) map[string][]relation.Pair {
	out := map[string][]relation.Pair{}
	for name, rels := range map[string]map[string][]relation.Pair{
		"dense":  denseLoad(seed, tiny, false).rels,
		"sparse": sparseLoad(seed, tiny, 2, true).rels,
		"views":  newSchedule(seed, tiny).base,
	} {
		for rel, ps := range rels {
			out[name+"."+rel] = ps
		}
	}
	return out
}

func TestGeneratorsFollowTheSeed(t *testing.T) {
	a, again, b := inputs(5), inputs(5), inputs(6)
	for name, ps := range a {
		if !bytes.Equal(pairsJSON(name, ps), pairsJSON(name, again[name])) {
			t.Errorf("%s: one seed gave two different inputs", name)
		}
		if slices.Equal(ps, b[name]) {
			t.Errorf("%s: two seeds gave the same tuples", name)
		}
		if na, nb := float64(len(ps)), float64(len(b[name])); math.Abs(na-nb)/na > 0.05 {
			t.Errorf("%s: %v tuples under one seed, %v under another: more than 5%% apart", name, na, nb)
		}
	}
	s1, s2 := newSchedule(5, tiny), newSchedule(5, tiny)
	for k := 0; k < 3*s1.period(); k++ {
		if m1, m2 := s1.step(k), s2.step(k); m1.rel != m2.rel || m1.del != m2.del || !bytes.Equal(m1.body, m2.body) {
			t.Fatalf("mutation %d differs between two schedules of one seed", k)
		}
	}
}

// TestScheduleIsStationary replays the write schedule on plain sets: every
// insert must add absent tuples, every delete remove present ones, and a
// whole period must restore the state.
func TestScheduleIsStationary(t *testing.T) {
	s := newSchedule(9, tiny)
	state := map[string]map[relation.Pair]bool{}
	for _, name := range viewRels {
		state[name] = map[relation.Pair]bool{}
		for _, p := range s.base[name] {
			state[name][p] = true
		}
	}
	sizes := func() [3]int { return [3]int{len(state["R"]), len(state["S"]), len(state["T"])} }
	apply := func(k int) {
		m := s.step(k)
		for _, p := range m.tuples {
			if state[m.rel][p] != m.del {
				t.Fatalf("step %d: tuple %v of %s is present=%v before a delete=%v", k, p, m.rel, state[m.rel][p], m.del)
			}
			if m.del {
				delete(state[m.rel], p)
			} else {
				state[m.rel][p] = true
			}
		}
	}
	warm := tiny.outstanding + 12
	for k := 0; k < warm; k++ {
		apply(k)
	}
	before := sizes()
	for k := warm; k < warm+2*s.period(); k++ {
		apply(k)
	}
	if after := sizes(); after != before {
		t.Errorf("relation sizes %v after two periods, %v before", after, before)
	}
}

// TestOracle checks the oracle on an instance small enough to read.
func TestOracle(t *testing.T) {
	db := map[string][]relation.Pair{
		"R": {{X: 1, Y: 2}, {X: 1, Y: 3}, {X: 2, Y: 3}, {X: 4, Y: 4}},
		"S": {{X: 2, Y: 5}, {X: 3, Y: 5}, {X: 3, Y: 6}},
	}
	for _, tc := range []struct {
		s    shape
		c    int32
		want [][]int64
	}{
		{shape{head: []string{"x", "z"}, atoms: []atom{{"R", "x", "y"}, {"S", "y", "z"}}}, 0,
			[][]int64{{1, 5}, {1, 6}, {2, 5}, {2, 6}}},
		{shape{head: []string{"x"}, count: "z", atoms: []atom{{"R", "x", "y"}, {"S", "y", "z"}}}, 0,
			[][]int64{{1, 2}, {2, 2}}},
		{shape{head: []string{"z"}, atoms: []atom{{"R", slot, "y"}, {"S", "y", "z"}}}, 2,
			[][]int64{{5}, {6}}},
		{shape{count: "z", atoms: []atom{{"R", slot, "y"}, {"S", "y", "z"}}}, 4,
			[][]int64{{0}}},
		{shape{head: []string{"x", "z"}, atoms: []atom{{"R", "x", "y"}, {"R", "y", "z"}, {"R", "x", "z"}}}, 0,
			[][]int64{{1, 3}, {4, 4}}},
	} {
		if got := solve(tc.s, db).get(tc.s, tc.c); !slices.EqualFunc(got, tc.want, func(a, b []int64) bool { return slices.Equal(a, b) }) {
			t.Errorf("%s: oracle says %v, want %v", tc.s.text(tc.c, ""), got, tc.want)
		}
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json and the tables in this package the
// same list.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json beside the benchmark directory")
	}
	type entry struct {
		Name, Unit, Better, Why string
		Bound                   float64
	}
	var doc struct {
		RunSeconds int     `json:"run_seconds"`
		Workloads  []entry `json:"workloads"`
		EndToEnd   []entry `json:"end_to_end"`
		PerLayer   []entry `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	if doc.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds is %d, the default window is %d", doc.RunSeconds, defaultSeconds)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("%d workloads listed, %d defined", len(doc.Workloads), len(workloads))
	}
	for i, w := range doc.Workloads {
		if w.Name != workloads[i].name || w.Why == "" || len(w.Why) > 200 {
			t.Errorf("workload %d: %q with a why of %d characters, want %q with 1 to 200", i, w.Name, len(w.Why), workloads[i].name)
		}
	}
	same := func(kind string, listed []entry, defs []metricDef) {
		if len(listed) != len(defs) {
			t.Fatalf("%s: %d metrics listed, %d defined", kind, len(listed), len(defs))
		}
		for i, e := range listed {
			d := defs[i]
			if e.Name != d.name || e.Unit != d.unit || e.Better != d.better || e.Bound != d.bound {
				t.Errorf("%s %d: listed %+v, defined %+v", kind, i, e, d)
			}
		}
	}
	same("end_to_end", doc.EndToEnd, endToEnd)
	same("per_layer", doc.PerLayer, perLayer)
}
