package stats

import (
	"math"
	"strconv"

	"repro/internal/optimizer"
)

// Planner accuracy: the predicted-vs-actual half of a statement row, served
// as GET /stats/planner. The executor reports every audited plan node — one
// the optimizer priced — with the query's observation; the row folds the
// cost- and cardinality-error ratios into per-strategy aggregates, keeps a
// short decision history, and ranks fingerprints by a call-weighted
// misprediction score so the worst-modeled statements surface first.

// NodeObservation is one executed, optimizer-priced plan node.
type NodeObservation struct {
	// Op identifies the node ("fold"/"star").
	Op string
	// Decision is the audited choice: strategy, thresholds, the modeled cost
	// PredictedCost and est|OUT| EstOut (0 = none), margin and near-margin
	// flag.
	optimizer.Decision
	// ActualNs is the measured wall time; it and PredictedCost must both be
	// > 0 for a cost-error ratio.
	ActualNs int64
	// Rows is the actual output size.
	Rows int64
}

// RatioBuckets are the fixed error-histogram bucket upper bounds (a ratio of
// 1.0 = perfect prediction lands in the 1.25 bucket). The final +Inf bucket
// is implicit: index len(RatioBuckets) counts ratios above the last bound.
var RatioBuckets = [...]float64{0.1, 0.25, 0.5, 0.8, 1.25, 2, 4, 10}

func bucketIndex(ratio float64) int {
	for i, b := range RatioBuckets {
		if ratio <= b {
			return i
		}
	}
	return len(RatioBuckets)
}

// bucketLabel renders one histogram bucket bound as its JSON key.
func bucketLabel(i int) string {
	if i >= len(RatioBuckets) {
		return "+inf"
	}
	return strconv.FormatFloat(RatioBuckets[i], 'g', -1, 64)
}

// DecisionRecord is one audited strategy decision in a fingerprint's history
// ring (newest first in snapshots).
type DecisionRecord struct {
	Op       string  `json:"op"`
	Strategy string  `json:"strategy"`
	Margin   float64 `json:"margin,omitempty"`
	Near     bool    `json:"near,omitempty"`
	Delta1   int     `json:"delta1,omitempty"`
	Delta2   int     `json:"delta2,omitempty"`
	CostErr  float64 `json:"cost_err,omitempty"`
	RowsErr  float64 `json:"rows_err,omitempty"`
}

// decisionHistory is how many recent decisions each fingerprint retains.
const decisionHistory = 8

// strategyAgg aggregates error ratios for one strategy under one fingerprint.
type strategyAgg struct {
	nodes         uint64
	sumAbsLogCost float64 // Σ|ln(actual/predicted)| — call-weighted misprediction mass
	sumLogCost    float64 // Σ ln(actual/predicted) — signed, for the geomean bias
	sumAbsLogRows float64
	costBuckets   [len(RatioBuckets) + 1]uint64
}

// StrategyErrors is one strategy's error aggregate as /stats/planner serves
// it.
type StrategyErrors struct {
	Nodes uint64 `json:"nodes"`
	// CostErrGeomean is the geometric mean of actual/predicted cost ratios:
	// the strategy's systematic bias (1.0 = unbiased, >1 = model too
	// optimistic).
	CostErrGeomean float64 `json:"cost_err_geomean"`
	// MeanAbsLogCost is the mean |ln ratio| — spread regardless of sign.
	MeanAbsLogCost float64 `json:"mean_abs_log_cost"`
	MeanAbsLogRows float64 `json:"mean_abs_log_rows"`
	// CostErrHist counts nodes per RatioBuckets bound (last = overflow).
	CostErrHist map[string]uint64 `json:"cost_err_hist,omitempty"`
}

// plannerAgg is a statement row's planner-accuracy aggregate, allocated on
// the fingerprint's first audited call (so nodes ≥ 1, and every strategyAgg
// has nodes ≥ 1).
type plannerAgg struct {
	calls      uint64
	nodes      uint64
	nearMargin uint64
	score      float64 // Σ|ln cost ratio| over every audited node
	byStrategy map[string]*strategyAgg
	worstAbs   float64
	worst      *DecisionRecord
	history    [decisionHistory]DecisionRecord // node i's record at i % decisionHistory
}

// PlannerRow is one fingerprint's planner-accuracy aggregate as
// /stats/planner serves it.
type PlannerRow struct {
	Fingerprint string `json:"fingerprint"`
	// Calls counts queries contributing audited nodes; Nodes the audited
	// plan nodes themselves.
	Calls uint64 `json:"calls"`
	Nodes uint64 `json:"nodes"`
	// NearMargin counts audited nodes whose decision was nearly a coin flip.
	NearMargin uint64 `json:"near_margin"`
	// Score is the call-weighted misprediction mass Σ|ln(actual/predicted)|:
	// fingerprints that are both frequent and badly modeled rank first.
	Score float64 `json:"score"`
	// Strategies breaks the errors down per chosen strategy.
	Strategies map[string]StrategyErrors `json:"strategies,omitempty"`
	// Worst is the single worst-predicted node seen for this fingerprint.
	Worst *DecisionRecord `json:"worst,omitempty"`
	// Decisions is the recent decision history, newest first.
	Decisions []DecisionRecord `json:"decisions,omitempty"`
	// LastUnixMs is the fingerprint's last call, as on /stats/statements.
	LastUnixMs int64 `json:"last_unix_ms"`
}

// observe folds one query's audited plan nodes into the aggregate.
func (p *plannerAgg) observe(nodes []NodeObservation) {
	p.calls++
	for _, n := range nodes {
		p.nodes++
		if n.NearMargin {
			p.nearMargin++
		}
		plannerNodes.With(orDefaultStrategy(n.Strategy)).Inc()
		agg := p.byStrategy[n.Strategy]
		if agg == nil {
			agg = &strategyAgg{}
			p.byStrategy[n.Strategy] = agg
		}
		agg.nodes++
		rec := DecisionRecord{
			Op: n.Op, Strategy: n.Strategy,
			Margin: n.Margin, Near: n.NearMargin,
			Delta1: n.Delta1, Delta2: n.Delta2,
		}
		if ce := n.CostErr(n.ActualNs); ce > 0 {
			logCE := math.Log(ce)
			agg.sumAbsLogCost += math.Abs(logCE)
			agg.sumLogCost += logCE
			agg.costBuckets[bucketIndex(ce)]++
			p.score += math.Abs(logCE)
			rec.CostErr = ce
			if math.Abs(logCE) > p.worstAbs || p.worst == nil {
				p.worstAbs = math.Abs(logCE)
				w := rec
				p.worst = &w
			}
		}
		if re := n.RowsErr(n.Rows); re > 0 {
			agg.sumAbsLogRows += math.Abs(math.Log(re))
			rec.RowsErr = re
		}
		p.history[(p.nodes-1)%decisionHistory] = rec
	}
}

func orDefaultStrategy(s string) string {
	if s == "" {
		return "unknown"
	}
	return s
}

// row renders the aggregate for /stats/planner. Decision histories come
// back newest first.
func (p *plannerAgg) row(fingerprint string, lastUnixMs int64) PlannerRow {
	pr := PlannerRow{
		Fingerprint: fingerprint,
		Calls:       p.calls,
		Nodes:       p.nodes,
		NearMargin:  p.nearMargin,
		Score:       p.score,
		LastUnixMs:  lastUnixMs,
	}
	if p.worst != nil {
		w := *p.worst
		pr.Worst = &w
	}
	pr.Strategies = make(map[string]StrategyErrors, len(p.byStrategy))
	for s, agg := range p.byStrategy {
		se := StrategyErrors{Nodes: agg.nodes, MeanAbsLogRows: agg.sumAbsLogRows / float64(agg.nodes)}
		var costN uint64
		for _, c := range agg.costBuckets {
			costN += c
		}
		if costN > 0 {
			se.CostErrGeomean = math.Exp(agg.sumLogCost / float64(costN))
			se.MeanAbsLogCost = agg.sumAbsLogCost / float64(costN)
			se.CostErrHist = make(map[string]uint64)
			for i, c := range agg.costBuckets {
				if c > 0 {
					se.CostErrHist[bucketLabel(i)] = c
				}
			}
		}
		pr.Strategies[s] = se
	}
	n := min(p.nodes, decisionHistory)
	pr.Decisions = make([]DecisionRecord, n)
	for i := range n {
		pr.Decisions[i] = p.history[(p.nodes-1-i)%decisionHistory]
	}
	return pr
}

// Sort keys PlannerSnapshot accepts.
const (
	PlannerSortScore      = "score"
	PlannerSortCalls      = "calls"
	PlannerSortNodes      = "nodes"
	PlannerSortNearMargin = "near_margin"
	PlannerSortWorst      = "worst"
)

// PlannerSnapshot returns the planner-accuracy half of every row that has
// had audited nodes, sorted descending by the given key (unknown or empty:
// score) and truncated to limit rows (0 or negative: all).
func (s *Statements) PlannerSnapshot(sortBy string, limit int) []PlannerRow {
	s.mu.Lock()
	out := make([]PlannerRow, 0, len(s.rows))
	for fp, r := range s.rows {
		if r.planner != nil {
			out = append(out, r.planner.row(fp, r.lastUnixMs))
		}
	}
	s.mu.Unlock()

	return sortRows(out, limit, func(r PlannerRow) string { return r.Fingerprint }, func(r PlannerRow) float64 {
		switch sortBy {
		case PlannerSortCalls:
			return float64(r.Calls)
		case PlannerSortNodes:
			return float64(r.Nodes)
		case PlannerSortNearMargin:
			return float64(r.NearMargin)
		case PlannerSortWorst:
			if r.Worst == nil || r.Worst.CostErr <= 0 {
				return 0
			}
			return math.Abs(math.Log(r.Worst.CostErr))
		default:
			return r.Score
		}
	})
}
