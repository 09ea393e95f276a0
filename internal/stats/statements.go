// Package stats is the workload-introspection layer: one per-fingerprint
// statement sheet, a live registry of in-flight queries with external kill,
// and a flight recorder retaining traces of recently completed queries. It
// sits between the executor (which reports per-node progress) and the HTTP
// surfaces /stats/statements, /stats/planner, /stats/activity and
// /debug/flight; internal/core owns the instances and wires them into the
// single evaluation path, so every query — HTTP, embedded, primary or
// replica — is attributed identically.
//
// The statement sheet is one registry with two views: Snapshot serves each
// row's call, outcome, latency and strategy aggregates, PlannerSnapshot the
// same rows' planner-accuracy aggregates (predicted cost and est|OUT|
// against what each audited fold or star did). One fingerprint map, one cap
// with its overflow and invalid buckets, and one Reset cover both, and each
// finished, failed or shed query takes the sheet's lock once.
//
// The package imports only internal/obs, internal/optimizer and the standard
// library: it must be linkable from the executor without dependency cycles,
// and its hot-path cost (one mutex acquisition per query completion, atomics
// during execution) is part of the ≤2% query-overhead budget.
package stats

import (
	"sort"
	"sync"
	"time"
)

// Outcome classifies how a query evaluation ended.
type Outcome string

// The outcome classes statement statistics and the flight recorder track.
const (
	OutcomeOK       Outcome = "ok"
	OutcomeError    Outcome = "error"
	OutcomeBudget   Outcome = "budget"   // materialization budget tripped
	OutcomeKilled   Outcome = "killed"   // external kill via /stats/activity
	OutcomeTimeout  Outcome = "timeout"  // server deadline exceeded
	OutcomeCanceled Outcome = "canceled" // client went away
	OutcomeShed     Outcome = "shed"     // rejected by admission control, never ran
)

// Overflow and invalid are the catch-all fingerprint buckets: statements past
// the registry's fingerprint cap, and statements whose text does not parse.
const (
	OverflowFingerprint = "<overflow>"
	InvalidFingerprint  = "<invalid>"
)

// Observation is one completed (or shed) query evaluation as the engine
// reports it to the statement-stats registry.
type Observation struct {
	Outcome  Outcome
	Elapsed  time.Duration
	Rows     int64
	Bytes    int64 // budget bytes charged during evaluation
	CacheHit bool  // plan served from the plan cache
	// Strategies is the per-plan-node strategy breakdown in tree order, e.g.
	// ["fold=mm", "star=nonmm"] (Plan.Strategies form).
	Strategies []string
	// Nodes are the executed plan's audited (optimizer-priced) nodes; a
	// non-empty list counts one call on the row's planner-accuracy view.
	Nodes []NodeObservation
}

// row is the mutable per-fingerprint aggregate. All fields are guarded by
// the registry mutex.
type row struct {
	calls       uint64
	ok          uint64
	errors      uint64
	budgetTrips uint64
	killed      uint64
	timeouts    uint64
	canceled    uint64
	shed        uint64
	cacheHits   uint64
	totalNs     int64
	maxNs       int64
	rows        int64
	maxRows     int64
	bytes       int64
	strategies  map[string]uint64
	lastUnixMs  int64
	planner     *plannerAgg // nil until the first call with audited nodes
}

// StatementRow is one fingerprint's aggregate as /stats/statements serves
// it.
type StatementRow struct {
	Fingerprint string  `json:"fingerprint"`
	Calls       uint64  `json:"calls"`
	OK          uint64  `json:"ok"`
	Errors      uint64  `json:"errors"`
	BudgetTrips uint64  `json:"budget_trips"`
	Killed      uint64  `json:"killed"`
	Timeouts    uint64  `json:"timeouts"`
	Canceled    uint64  `json:"canceled"`
	Shed        uint64  `json:"shed"`
	CacheHits   uint64  `json:"cache_hits"`
	CacheHitPct float64 `json:"cache_hit_pct"`
	TotalMs     float64 `json:"total_ms"`
	MeanMs      float64 `json:"mean_ms"`
	MaxMs       float64 `json:"max_ms"`
	Rows        int64   `json:"rows"`
	MaxRows     int64   `json:"max_rows"`
	BudgetBytes int64   `json:"budget_bytes"`
	// Strategies is the per-plan-node strategy breakdown, keyed by the plan
	// node's "op=strategy" form, valued by how many calls ran that choice.
	Strategies map[string]uint64 `json:"strategies,omitempty"`
	LastUnixMs int64             `json:"last_unix_ms"`
}

// Statements is the per-fingerprint statement sheet behind /stats/statements
// and /stats/planner. The zero value is not usable; use NewStatements. All
// methods are safe for concurrent use.
type Statements struct {
	mu   sync.Mutex
	max  int
	rows map[string]*row
}

// DefaultMaxStatements caps distinct fingerprints tracked before new ones
// fold into the overflow bucket.
const DefaultMaxStatements = 512

// NewStatements returns a registry tracking at most max distinct
// fingerprints (0 or negative: DefaultMaxStatements).
func NewStatements(max int) *Statements {
	if max <= 0 {
		max = DefaultMaxStatements
	}
	return &Statements{max: max, rows: make(map[string]*row)}
}

// Record folds one observation into the fingerprint's row under one lock.
// Empty fingerprints (unparseable statements) land in the invalid bucket;
// fingerprints past the cap land in the overflow bucket.
func (s *Statements) Record(fingerprint string, o Observation) {
	if fingerprint == "" {
		fingerprint = InvalidFingerprint
	}
	stmtObservations.With(string(o.Outcome)).Inc()
	s.mu.Lock()
	defer s.mu.Unlock()
	r := s.rows[fingerprint]
	if r == nil && len(s.rows) >= s.max && fingerprint != OverflowFingerprint && fingerprint != InvalidFingerprint {
		stmtOverflow.Inc()
		fingerprint = OverflowFingerprint
		r = s.rows[fingerprint]
	}
	if r == nil {
		r = &row{}
		s.rows[fingerprint] = r
		stmtFingerprints.Set(float64(len(s.rows)))
	}
	r.calls++
	switch o.Outcome {
	case OutcomeOK:
		r.ok++
	case OutcomeBudget:
		r.budgetTrips++
	case OutcomeKilled:
		r.killed++
	case OutcomeTimeout:
		r.timeouts++
	case OutcomeCanceled:
		r.canceled++
	case OutcomeShed:
		r.shed++
	default:
		r.errors++
	}
	if o.CacheHit {
		r.cacheHits++
	}
	ns := o.Elapsed.Nanoseconds()
	r.totalNs += ns
	if ns > r.maxNs {
		r.maxNs = ns
	}
	r.rows += o.Rows
	if o.Rows > r.maxRows {
		r.maxRows = o.Rows
	}
	r.bytes += o.Bytes
	if len(o.Strategies) > 0 {
		if r.strategies == nil {
			r.strategies = make(map[string]uint64, len(o.Strategies))
		}
		for _, st := range o.Strategies {
			r.strategies[st]++
		}
	}
	if len(o.Nodes) > 0 {
		if r.planner == nil {
			r.planner = &plannerAgg{byStrategy: make(map[string]*strategyAgg)}
		}
		r.planner.observe(o.Nodes)
	}
	r.lastUnixMs = time.Now().UnixMilli()
}

// Reset drops every row, returning how many there were and how many of them
// had planner-accuracy aggregates. The sheet starts clean; process-wide
// counters in /metrics are unaffected (they are cumulative by contract).
func (s *Statements) Reset() (rows, audited int) {
	s.mu.Lock()
	rows = len(s.rows)
	for _, r := range s.rows {
		if r.planner != nil {
			audited++
		}
	}
	s.rows = make(map[string]*row)
	stmtFingerprints.Set(0)
	s.mu.Unlock()
	stmtResets.Inc()
	return rows, audited
}

// Sort keys Snapshot accepts.
const (
	SortCalls   = "calls"
	SortTotalMs = "total_ms"
	SortMeanMs  = "mean_ms"
	SortMaxMs   = "max_ms"
	SortRows    = "rows"
	SortErrors  = "errors"
)

// Snapshot returns the current aggregates, sorted descending by the given
// key (unknown or empty: total_ms) and truncated to limit rows (0 or
// negative: all).
func (s *Statements) Snapshot(sortBy string, limit int) []StatementRow {
	s.mu.Lock()
	out := make([]StatementRow, 0, len(s.rows))
	for fp, r := range s.rows {
		executed := r.calls - r.shed
		sr := StatementRow{
			Fingerprint: fp,
			Calls:       r.calls,
			OK:          r.ok,
			Errors:      r.errors,
			BudgetTrips: r.budgetTrips,
			Killed:      r.killed,
			Timeouts:    r.timeouts,
			Canceled:    r.canceled,
			Shed:        r.shed,
			CacheHits:   r.cacheHits,
			TotalMs:     float64(r.totalNs) / 1e6,
			MaxMs:       float64(r.maxNs) / 1e6,
			Rows:        r.rows,
			MaxRows:     r.maxRows,
			BudgetBytes: r.bytes,
			LastUnixMs:  r.lastUnixMs,
		}
		if executed > 0 {
			sr.MeanMs = sr.TotalMs / float64(executed)
			sr.CacheHitPct = 100 * float64(r.cacheHits) / float64(executed)
		}
		if len(r.strategies) > 0 {
			sr.Strategies = make(map[string]uint64, len(r.strategies))
			for k, v := range r.strategies {
				sr.Strategies[k] = v
			}
		}
		out = append(out, sr)
	}
	s.mu.Unlock()

	return sortRows(out, limit, func(r StatementRow) string { return r.Fingerprint }, func(r StatementRow) float64 {
		switch sortBy {
		case SortCalls:
			return float64(r.Calls)
		case SortMeanMs:
			return r.MeanMs
		case SortMaxMs:
			return r.MaxMs
		case SortRows:
			return float64(r.Rows)
		case SortErrors:
			return float64(r.Errors + r.BudgetTrips + r.Timeouts + r.Killed)
		default:
			return r.TotalMs
		}
	})
}

// sortRows sorts one view's rows descending by key, ties by fingerprint,
// and truncates them to limit (0 or negative: all).
func sortRows[T any](out []T, limit int, fingerprint func(T) string, key func(T) float64) []T {
	sort.SliceStable(out, func(i, j int) bool {
		ki, kj := key(out[i]), key(out[j])
		if ki != kj {
			return ki > kj
		}
		return fingerprint(out[i]) < fingerprint(out[j])
	})
	if limit > 0 && len(out) > limit {
		out = out[:limit]
	}
	return out
}
