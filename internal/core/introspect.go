package core

import (
	"context"
	"errors"
	"time"

	"repro/internal/govern"
	"repro/internal/obs"
	"repro/internal/query"
	"repro/internal/stats"
)

// IntrospectionConfig sizes the workload-introspection layer: statement
// statistics, the live activity view and the flight recorder. Zero fields
// take the stats package defaults; introspection itself is always on (its
// hot-path cost is a handful of atomics and one mutex acquisition per
// query).
type IntrospectionConfig struct {
	// MaxStatements caps distinct fingerprints on the statement sheet (both
	// /stats/statements and /stats/planner) before new ones fold into the
	// overflow bucket.
	MaxStatements int
	// FlightSize is the flight-recorder ring capacity.
	FlightSize int
	// FlightSample keeps 1-in-N unremarkable queries in the flight recorder
	// (slow and failed queries are always kept).
	FlightSample int
	// SlowThreshold is the latency at which a query counts as slow for
	// flight-recorder retention.
	SlowThreshold time.Duration
}

// WithIntrospection sizes the workload-introspection layer.
func WithIntrospection(ic IntrospectionConfig) Option {
	return func(c *Config) { c.Introspect = ic }
}

// StatementStats exposes the per-fingerprint statement statistics behind
// GET /stats/statements.
func (e *Engine) StatementStats() *stats.Statements { return e.stmts }

// Activity exposes the in-flight query registry behind GET /stats/activity;
// Activity().Cancel(id) kills a running query from outside.
func (e *Engine) Activity() *stats.Activity { return e.activity }

// FlightRecorder exposes the recently-completed-query ring behind
// GET /debug/flight.
func (e *Engine) FlightRecorder() *stats.Flight { return e.flight }

// NoteShed attributes an admission-control rejection to the statement that
// was shed: the query never reached evaluation, so the server reports it
// here for the statement sheet and flight recorder.
func (e *Engine) NoteShed(ctx context.Context, src string) {
	e.recordQuery(ctx, query.FingerprintText(src), src, time.Now(), stats.OutcomeShed, 0, 0, false, nil, nil)
}

// classifyOutcome maps an evaluation error to its statement-stats outcome.
// killed reports whether an external kill was delivered (its cancellation
// surfaces as context.Canceled, so it is checked first).
func classifyOutcome(err error, killed bool) stats.Outcome {
	switch {
	case err == nil:
		return stats.OutcomeOK
	case errors.Is(err, govern.ErrBudgetExceeded):
		return stats.OutcomeBudget
	case killed:
		return stats.OutcomeKilled
	case errors.Is(err, context.DeadlineExceeded):
		return stats.OutcomeTimeout
	case errors.Is(err, context.Canceled):
		return stats.OutcomeCanceled
	default:
		return stats.OutcomeError
	}
}

// recordQuery is the one recording path for a finished, failed or shed
// query: one statement-sheet row and one flight record. plan is the executed
// plan, nil when the query produced none; one walk over it gathers the
// strategy breakdown and the audited (optimizer-priced) nodes for the sheet
// and feeds each audited node's measured time to the optimizer's drift
// EWMAs.
func (e *Engine) recordQuery(ctx context.Context, fingerprint, text string, start time.Time,
	outcome stats.Outcome, rows, bytes int64, hit bool, plan *query.Plan, err error) {
	elapsed := time.Since(start)
	o := stats.Observation{Outcome: outcome, Elapsed: elapsed, Rows: rows, Bytes: bytes, CacheHit: hit}
	var planFn func() string
	if plan != nil {
		plan.Walk(func(n *query.Node) {
			if n.Strategy != "" {
				o.Strategies = append(o.Strategies, n.Op+"="+n.Strategy)
			}
			if n.PredictedCost <= 0 && n.OutJoin <= 0 {
				return
			}
			o.Nodes = append(o.Nodes, stats.NodeObservation{Op: n.Op, Decision: n.Decision, ActualNs: n.TimeNs, Rows: n.Rows})
			e.opt.ObserveNode(n.Strategy, n.PredictedCost, float64(n.TimeNs))
		})
		planFn = func() string {
			// Lazily rendered only when the flight recorder retains the
			// record; the copy keeps the caller's plan un-mutated.
			pl := *plan
			pl.Analyzed = true
			return pl.String()
		}
	}
	e.stmts.Record(fingerprint, o)
	rec := stats.FlightRecord{
		RequestID:   obs.RequestIDFrom(ctx),
		Fingerprint: fingerprint,
		Query:       text,
		Outcome:     outcome,
		StartUnix:   start.UnixMilli(),
		ElapsedMs:   float64(elapsed.Nanoseconds()) / 1e6,
		Rows:        rows,
		Bytes:       bytes,
		CacheHit:    hit,
	}
	if err != nil {
		rec.Error = err.Error()
	}
	e.flight.Record(rec, planFn)
}
