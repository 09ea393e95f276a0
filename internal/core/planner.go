package core

import (
	"repro/internal/optimizer"
	"repro/internal/query"
	"repro/internal/stats"
)

// Planner-accuracy wiring: after a query succeeds, every optimizer-priced
// plan node is joined with its measured wall time and output size, fed to
// the per-fingerprint accuracy sheet behind GET /stats/planner and to the
// optimizer's drift EWMAs, and — when recalibration is enabled — the
// optimizer gets a chance to adopt observed constants between queries.

// WithOptimizerConstants pins the optimizer's (Ts, Tm, TI) machine
// constants, skipping the startup micro-probe: reproducible plan choices
// across runners, and the manual escape hatch when drift detection fires.
func WithOptimizerConstants(c optimizer.Constants) Option {
	return func(cfg *Config) { cfg.OptimizerConstants = &c }
}

// WithRecalibration enables online constant recalibration (default off):
// the optimizer adopts EWMA-smoothed observed constants with a bounded step
// per adoption, never mid-query.
func WithRecalibration(rc optimizer.RecalConfig) Option {
	return func(cfg *Config) {
		rc.Enabled = true
		cfg.Recalibrate = &rc
	}
}

// PlannerStats exposes the per-fingerprint planner-accuracy sheet behind
// GET /stats/planner.
func (e *Engine) PlannerStats() *stats.Planner { return e.planner }

// notePlanner extracts every audited (optimizer-priced) node from an
// executed plan and feeds the accuracy sheet and the drift EWMAs.
func (e *Engine) notePlanner(fingerprint string, plan *query.Plan) {
	if plan == nil {
		return
	}
	var nodes []stats.NodeObservation
	plan.Walk(func(n *query.Node) {
		if n.PredictedCost <= 0 && n.OutJoin <= 0 {
			return
		}
		nodes = append(nodes, stats.NodeObservation{Op: n.Op, Decision: n.Decision, ActualNs: n.TimeNs, Rows: n.Rows})
		e.opt.ObserveNode(n.Strategy, n.PredictedCost, float64(n.TimeNs))
	})
	e.planner.Record(fingerprint, nodes)
}
