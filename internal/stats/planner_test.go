package stats

import (
	"math"
	"testing"

	"repro/internal/optimizer"
)

func obsNode(strategy string, predicted float64, actual int64) NodeObservation {
	return NodeObservation{Op: "fold", Decision: optimizer.Decision{Strategy: strategy, PredictedCost: predicted}, ActualNs: actual}
}

// audited is an observation carrying only audited plan nodes.
func audited(nodes ...NodeObservation) Observation {
	return Observation{Outcome: OutcomeOK, Nodes: nodes}
}

func TestPlannerAggregation(t *testing.T) {
	p := NewStatements(0)
	// Fingerprint A: one accurate mm node, one 4×-slow wcoj node.
	p.Record("A", audited(
		obsNode("mm", 1e6, 1e6),
		obsNode("wcoj", 1e6, 4e6),
	))
	// Fingerprint B: called twice, mildly off.
	p.Record("B", audited(obsNode("mm", 1e6, 2e6)))
	p.Record("B", audited(obsNode("mm", 1e6, 2e6)))

	rows := p.PlannerSnapshot("", 0)
	if len(rows) != 2 {
		t.Fatalf("got %d rows, want 2", len(rows))
	}
	// Default sort is score = Σ|ln ratio|: A has ln4 ≈ 1.39, B has 2·ln2 ≈ 1.39.
	// They tie-break by fingerprint, so just check both are present with the
	// right aggregates.
	byFP := map[string]PlannerRow{}
	for _, r := range rows {
		byFP[r.Fingerprint] = r
	}
	a := byFP["A"]
	if a.Calls != 1 || a.Nodes != 2 {
		t.Fatalf("A calls/nodes = %d/%d, want 1/2", a.Calls, a.Nodes)
	}
	wcoj := a.Strategies["wcoj"]
	if wcoj.Nodes != 1 {
		t.Fatalf("A wcoj nodes = %d, want 1", wcoj.Nodes)
	}
	if math.Abs(wcoj.CostErrGeomean-4) > 1e-9 {
		t.Errorf("A wcoj geomean = %.3f, want 4", wcoj.CostErrGeomean)
	}
	if wcoj.CostErrHist["4"] != 1 {
		t.Errorf("A wcoj histogram = %v, want one node in the 4 bucket", wcoj.CostErrHist)
	}
	if a.Worst == nil || math.Abs(a.Worst.CostErr-4) > 1e-9 {
		t.Errorf("A worst = %+v, want the 4× wcoj node", a.Worst)
	}
	b := byFP["B"]
	if b.Calls != 2 || b.Nodes != 2 {
		t.Fatalf("B calls/nodes = %d/%d, want 2/2", b.Calls, b.Nodes)
	}
	if want := 2 * math.Log(2); math.Abs(b.Score-want) > 1e-9 {
		t.Errorf("B score = %.3f, want %.3f (call-weighted)", b.Score, want)
	}

	// Sort by calls puts B first.
	rows = p.PlannerSnapshot(PlannerSortCalls, 0)
	if rows[0].Fingerprint != "B" {
		t.Errorf("sort=calls: first = %s, want B", rows[0].Fingerprint)
	}
	// Limit truncates.
	if got := len(p.PlannerSnapshot("", 1)); got != 1 {
		t.Errorf("limit=1 returned %d rows", got)
	}

	if _, n := p.Reset(); n != 2 {
		t.Errorf("Reset dropped %d, want 2", n)
	}
	if got := len(p.PlannerSnapshot("", 0)); got != 0 {
		t.Errorf("%d rows after reset", got)
	}
}

func TestPlannerDecisionHistoryRing(t *testing.T) {
	p := NewStatements(0)
	for i := 1; i <= decisionHistory+3; i++ {
		p.Record("Q", audited(NodeObservation{
			Op: "fold", Decision: optimizer.Decision{Strategy: "mm", Margin: float64(i), PredictedCost: 1e6},
			ActualNs: 1e6,
		}))
	}
	rows := p.PlannerSnapshot("", 0)
	if len(rows) != 1 {
		t.Fatalf("got %d rows", len(rows))
	}
	decs := rows[0].Decisions
	if len(decs) != decisionHistory {
		t.Fatalf("history kept %d, want %d", len(decs), decisionHistory)
	}
	// Newest first: margins decisionHistory+3, decisionHistory+2, ...
	for i, d := range decs {
		want := float64(decisionHistory + 3 - i)
		if d.Margin != want {
			t.Fatalf("decision[%d].Margin = %v, want %v", i, d.Margin, want)
		}
	}
}

func TestPlannerOverflowAndEmpty(t *testing.T) {
	p := NewStatements(2)
	p.Record("A", audited(obsNode("mm", 1e6, 1e6)))
	p.Record("B", audited(obsNode("mm", 1e6, 1e6)))
	p.Record("C", audited(obsNode("mm", 1e6, 1e6)))
	rows := p.PlannerSnapshot("", 0)
	fps := map[string]bool{}
	for _, r := range rows {
		fps[r.Fingerprint] = true
	}
	if !fps[OverflowFingerprint] {
		t.Errorf("overflow fingerprint missing: %v", fps)
	}
	if fps["C"] {
		t.Errorf("C should have folded into overflow")
	}
	// Past the cap, a statement with audited nodes folds into the overflow
	// row on both views: the planner view names only fingerprints the
	// statement view names.
	p.Reset()
	p.Record("a", Observation{Outcome: OutcomeOK})
	p.Record("b", Observation{Outcome: OutcomeOK})
	p.Record("c", audited(obsNode("mm", 1e6, 1e6)))
	named := map[string]bool{}
	for _, r := range p.Snapshot("", 0) {
		named[r.Fingerprint] = true
	}
	for _, r := range p.PlannerSnapshot("", 0) {
		if !named[r.Fingerprint] {
			t.Errorf("planner row %q missing from the statement view %v", r.Fingerprint, named)
		}
	}
	if named["c"] {
		t.Errorf("c should have folded into overflow on the statement view")
	}
	// Empty node lists carry no signal and create no planner row.
	p.Reset()
	p.Record("D", Observation{Outcome: OutcomeOK})
	if got := len(p.PlannerSnapshot("", 0)); got != 0 {
		t.Errorf("empty observation created %d rows", got)
	}
}

func TestNodeObservationRatios(t *testing.T) {
	n := NodeObservation{Decision: optimizer.Decision{PredictedCost: 2e6, EstOut: 100}, ActualNs: 1e6, Rows: 0}
	if got := n.CostErr(n.ActualNs); math.Abs(got-0.5) > 1e-9 {
		t.Errorf("CostErr = %v, want 0.5", got)
	}
	// Empty output vs estimate 100 → ratio 1/100, not 0.
	if got := n.RowsErr(n.Rows); math.Abs(got-0.01) > 1e-9 {
		t.Errorf("RowsErr = %v, want 0.01", got)
	}
	if (NodeObservation{}).CostErr(0) != 0 {
		t.Error("CostErr without data should be 0")
	}
}
