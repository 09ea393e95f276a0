package stats

import (
	"math"
	"sort"
	"strconv"
	"sync"
	"time"

	"repro/internal/optimizer"
)

// Planner-accuracy registry: the per-fingerprint predicted-vs-actual sheet
// behind GET /stats/planner. The executor reports every audited plan node —
// one the optimizer priced — after a query completes; the registry folds the
// cost- and cardinality-error ratios into per-strategy aggregates, keeps a
// short decision history per fingerprint, and ranks fingerprints by a
// call-weighted misprediction score so the worst-modeled statements surface
// first.

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

// plannerRow is the mutable per-fingerprint aggregate.
type plannerRow struct {
	calls      uint64
	nodes      uint64
	nearMargin uint64
	score      float64 // Σ|ln cost ratio| over every audited node
	byStrategy map[string]*strategyAgg
	worstAbs   float64
	worst      *DecisionRecord
	history    [decisionHistory]DecisionRecord
	histLen    int
	histNext   int
	lastUnixMs int64
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
	Decisions  []DecisionRecord `json:"decisions,omitempty"`
	LastUnixMs int64            `json:"last_unix_ms"`
}

// Planner is the per-fingerprint planner-accuracy registry. The zero value
// is not usable; use NewPlanner. All methods are safe for concurrent use.
type Planner struct {
	mu   sync.Mutex
	max  int
	rows map[string]*plannerRow
}

// NewPlanner returns a registry tracking at most max distinct fingerprints
// (0 or negative: DefaultMaxStatements), with overflow folded into the
// overflow bucket like the statement sheet.
func NewPlanner(max int) *Planner {
	if max <= 0 {
		max = DefaultMaxStatements
	}
	return &Planner{max: max, rows: make(map[string]*plannerRow)}
}

// Record folds one query's audited plan nodes into the fingerprint's
// aggregate. No-op when nodes is empty (queries whose plans the optimizer
// never priced carry no accuracy signal).
func (p *Planner) Record(fingerprint string, nodes []NodeObservation) {
	if len(nodes) == 0 {
		return
	}
	if fingerprint == "" {
		fingerprint = InvalidFingerprint
	}
	p.mu.Lock()
	r, ok := p.rows[fingerprint]
	if !ok {
		if len(p.rows) >= p.max && fingerprint != OverflowFingerprint && fingerprint != InvalidFingerprint {
			p.mu.Unlock()
			p.Record(OverflowFingerprint, nodes)
			return
		}
		r = &plannerRow{byStrategy: make(map[string]*strategyAgg)}
		p.rows[fingerprint] = r
	}
	r.calls++
	for _, n := range nodes {
		r.nodes++
		if n.NearMargin {
			r.nearMargin++
		}
		plannerNodes.With(orDefaultStrategy(n.Strategy)).Inc()
		agg := r.byStrategy[n.Strategy]
		if agg == nil {
			agg = &strategyAgg{}
			r.byStrategy[n.Strategy] = agg
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
			r.score += math.Abs(logCE)
			rec.CostErr = ce
			if math.Abs(logCE) > r.worstAbs || r.worst == nil {
				r.worstAbs = math.Abs(logCE)
				w := rec
				r.worst = &w
			}
		}
		if re := n.RowsErr(n.Rows); re > 0 {
			agg.sumAbsLogRows += math.Abs(math.Log(re))
			rec.RowsErr = re
		}
		r.history[r.histNext] = rec
		r.histNext = (r.histNext + 1) % decisionHistory
		if r.histLen < decisionHistory {
			r.histLen++
		}
	}
	r.lastUnixMs = time.Now().UnixMilli()
	p.mu.Unlock()
}

func orDefaultStrategy(s string) string {
	if s == "" {
		return "unknown"
	}
	return s
}

// Reset drops every aggregate, returning how many fingerprints were dropped.
func (p *Planner) Reset() int {
	p.mu.Lock()
	n := len(p.rows)
	p.rows = make(map[string]*plannerRow)
	p.mu.Unlock()
	return n
}

// Sort keys Planner.Snapshot accepts.
const (
	PlannerSortScore      = "score"
	PlannerSortCalls      = "calls"
	PlannerSortNodes      = "nodes"
	PlannerSortNearMargin = "near_margin"
	PlannerSortWorst      = "worst"
)

// bucketLabel renders one histogram bucket bound as its JSON key.
func bucketLabel(i int) string {
	if i >= len(RatioBuckets) {
		return "+inf"
	}
	return strconv.FormatFloat(RatioBuckets[i], 'g', -1, 64)
}

// Snapshot returns the current aggregates, sorted descending by the given
// key (unknown or empty: score) and truncated to limit rows (0 or negative:
// all). Decision histories come back newest first.
func (p *Planner) Snapshot(sortBy string, limit int) []PlannerRow {
	p.mu.Lock()
	out := make([]PlannerRow, 0, len(p.rows))
	for fp, r := range p.rows {
		pr := PlannerRow{
			Fingerprint: fp,
			Calls:       r.calls,
			Nodes:       r.nodes,
			NearMargin:  r.nearMargin,
			Score:       r.score,
			LastUnixMs:  r.lastUnixMs,
		}
		if r.worst != nil {
			w := *r.worst
			pr.Worst = &w
		}
		if len(r.byStrategy) > 0 {
			pr.Strategies = make(map[string]StrategyErrors, len(r.byStrategy))
			for s, agg := range r.byStrategy {
				se := StrategyErrors{Nodes: agg.nodes}
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
				if agg.nodes > 0 {
					se.MeanAbsLogRows = agg.sumAbsLogRows / float64(agg.nodes)
				}
				pr.Strategies[s] = se
			}
		}
		if r.histLen > 0 {
			pr.Decisions = make([]DecisionRecord, 0, r.histLen)
			for i := 0; i < r.histLen; i++ {
				idx := (r.histNext - 1 - i + decisionHistory*2) % decisionHistory
				pr.Decisions = append(pr.Decisions, r.history[idx])
			}
		}
		out = append(out, pr)
	}
	p.mu.Unlock()

	key := func(r PlannerRow) float64 {
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
	}
	sort.SliceStable(out, func(i, j int) bool {
		ki, kj := key(out[i]), key(out[j])
		if ki != kj {
			return ki > kj
		}
		return out[i].Fingerprint < out[j].Fingerprint
	})
	if limit > 0 && len(out) > limit {
		out = out[:limit]
	}
	return out
}
