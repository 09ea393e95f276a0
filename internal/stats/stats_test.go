package stats

import (
	"fmt"
	"sync"
	"testing"
	"time"
)

func TestStatementsAggregateAndSort(t *testing.T) {
	s := NewStatements(0)
	s.Record("Q($0) :- R($0, ?)", Observation{Outcome: OutcomeOK, Elapsed: 2 * time.Millisecond, Rows: 10, CacheHit: false, Strategies: []string{"fold=mm"}})
	s.Record("Q($0) :- R($0, ?)", Observation{Outcome: OutcomeOK, Elapsed: 4 * time.Millisecond, Rows: 30, CacheHit: true, Strategies: []string{"fold=mm"}})
	s.Record("Q($0) :- S($0, ?)", Observation{Outcome: OutcomeBudget, Elapsed: 50 * time.Millisecond})

	rows := s.Snapshot(SortCalls, 0)
	if len(rows) != 2 {
		t.Fatalf("rows = %d, want 2", len(rows))
	}
	r := rows[0]
	if r.Fingerprint != "Q($0) :- R($0, ?)" || r.Calls != 2 {
		t.Fatalf("top row by calls: %+v", r)
	}
	if r.Rows != 40 || r.MaxRows != 30 {
		t.Fatalf("rows aggregate: %+v", r)
	}
	if r.MeanMs < 2.9 || r.MeanMs > 3.1 {
		t.Fatalf("mean_ms = %v, want ~3", r.MeanMs)
	}
	if r.MaxMs < 3.9 || r.MaxMs > 4.1 {
		t.Fatalf("max_ms = %v, want ~4", r.MaxMs)
	}
	if r.CacheHitPct != 50 {
		t.Fatalf("cache_hit_pct = %v, want 50", r.CacheHitPct)
	}
	if r.Strategies["fold=mm"] != 2 {
		t.Fatalf("strategies: %v", r.Strategies)
	}

	// By total time the budget-tripped statement dominates.
	if rows := s.Snapshot(SortTotalMs, 1); rows[0].Fingerprint != "Q($0) :- S($0, ?)" || rows[0].BudgetTrips != 1 {
		t.Fatalf("top row by total_ms: %+v", rows[0])
	}

	if n, _ := s.Reset(); n != 2 {
		t.Fatalf("reset dropped %d rows, want 2", n)
	}
	if rows := s.Snapshot("", 0); len(rows) != 0 {
		t.Fatalf("rows after reset: %v", rows)
	}
}

func TestStatementsOverflowAndInvalid(t *testing.T) {
	s := NewStatements(2)
	s.Record("a", Observation{Outcome: OutcomeOK})
	s.Record("b", Observation{Outcome: OutcomeOK})
	s.Record("c", Observation{Outcome: OutcomeOK}) // past the cap
	s.Record("", Observation{Outcome: OutcomeError})

	byFP := map[string]StatementRow{}
	for _, r := range s.Snapshot("", 0) {
		byFP[r.Fingerprint] = r
	}
	if _, ok := byFP["c"]; ok {
		t.Fatal("statement past the cap got its own row")
	}
	if byFP[OverflowFingerprint].Calls == 0 {
		t.Fatalf("no overflow bucket: %v", byFP)
	}
	if byFP[InvalidFingerprint].Errors != 1 {
		t.Fatalf("no invalid bucket: %v", byFP)
	}
}

func TestActivityLifecycleAndKill(t *testing.T) {
	reg := NewActivity()
	cancelled := false
	a := reg.Begin("req-1", "Q($0) :- R($0, $1)", "Q(x) :- R(x, y)", func() { cancelled = true })
	a.ExecNode("fold", "R⋈S")
	a.ExecProgress(100, 4096)
	a.ExecProgress(23, 0)

	list := reg.List()
	if len(list) != 1 {
		t.Fatalf("in flight = %d, want 1", len(list))
	}
	got := list[0]
	if got.RequestID != "req-1" || got.Rows != 123 || got.BudgetBytes != 4096 || got.Node != "fold R⋈S" {
		t.Fatalf("active info: %+v", got)
	}

	if reg.Cancel(got.ID + 999) {
		t.Fatal("cancel of unknown id succeeded")
	}
	if !reg.Cancel(got.ID) {
		t.Fatal("cancel of live id failed")
	}
	if !cancelled || !a.Killed() {
		t.Fatalf("kill not delivered: cancelled=%v killed=%v", cancelled, a.Killed())
	}

	reg.Finish(a)
	if len(reg.List()) != 0 {
		t.Fatal("finished query still listed")
	}
	if reg.Cancel(got.ID) {
		t.Fatal("cancel after finish succeeded")
	}
}

func TestFlightRetentionAndSampling(t *testing.T) {
	f := NewFlight(8, 4, 10*time.Millisecond)

	// Errors and slow queries always retained; plan rendered lazily.
	rendered := 0
	plan := func() string { rendered++; return "plan" }
	if !f.Record(FlightRecord{Outcome: OutcomeError, ElapsedMs: 0.1, Error: "boom"}, plan) {
		t.Fatal("error dropped")
	}
	if !f.Record(FlightRecord{Outcome: OutcomeOK, ElapsedMs: 50}, plan) {
		t.Fatal("slow dropped")
	}
	// Unremarkable: first kept (sampled), next three dropped, fifth kept.
	keeps := 0
	for i := 0; i < 5; i++ {
		if f.Record(FlightRecord{Outcome: OutcomeOK, ElapsedMs: 0.1}, plan) {
			keeps++
		}
	}
	if keeps != 2 {
		t.Fatalf("sampled keeps = %d, want 2", keeps)
	}
	if f.SampledOut() != 3 {
		t.Fatalf("sampled out = %d, want 3", f.SampledOut())
	}
	if rendered != 4 {
		t.Fatalf("plans rendered = %d, want 4 (retained records only)", rendered)
	}

	recs := f.Snapshot(0)
	if len(recs) != 4 {
		t.Fatalf("records = %d, want 4", len(recs))
	}
	// Newest first; seq strictly decreasing.
	for i := 1; i < len(recs); i++ {
		if recs[i].Seq >= recs[i-1].Seq {
			t.Fatalf("not newest-first: %v", recs)
		}
	}
	if recs[len(recs)-1].Class != string(OutcomeError) {
		t.Fatalf("oldest class = %q, want error", recs[len(recs)-1].Class)
	}
	if recs[0].Plan != "plan" {
		t.Fatalf("retained record lost its plan: %+v", recs[0])
	}
}

func TestFlightRingWraps(t *testing.T) {
	f := NewFlight(4, 1, time.Hour)
	for i := 0; i < 10; i++ {
		f.Record(FlightRecord{Outcome: OutcomeError, Error: fmt.Sprintf("e%d", i)}, nil)
	}
	recs := f.Snapshot(0)
	if len(recs) != 4 {
		t.Fatalf("records = %d, want ring size 4", len(recs))
	}
	if recs[0].Error != "e9" || recs[3].Error != "e6" {
		t.Fatalf("ring kept wrong tail: %+v", recs)
	}
	if got := f.Snapshot(2); len(got) != 2 || got[0].Error != "e9" {
		t.Fatalf("limited snapshot: %+v", got)
	}
}

// TestConcurrentUse drives every surface from many goroutines; the race
// detector is the assertion.
func TestConcurrentUse(t *testing.T) {
	s := NewStatements(8)
	reg := NewActivity()
	f := NewFlight(16, 4, time.Millisecond)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				fp := fmt.Sprintf("fp-%d", (g+i)%12)
				a := reg.Begin("rid", fp, "text", func() {})
				a.ExecNode("fold", "x")
				a.ExecProgress(1, 2)
				if i%3 == 0 {
					reg.Cancel(a.id)
				}
				reg.List()
				reg.Finish(a)
				s.Record(fp, Observation{Outcome: OutcomeOK, Elapsed: time.Microsecond, Strategies: []string{"fold=mm"},
					Nodes: []NodeObservation{{Op: "fold", ActualNs: 1}}})
				s.Snapshot(SortCalls, 4)
				s.PlannerSnapshot(PlannerSortScore, 4)
				f.Record(FlightRecord{Fingerprint: fp, Outcome: OutcomeOK}, func() string { return "p" })
				f.Snapshot(4)
			}
		}(g)
	}
	wg.Wait()
	if got := len(reg.List()); got != 0 {
		t.Fatalf("leaked in-flight entries: %d", got)
	}
}
