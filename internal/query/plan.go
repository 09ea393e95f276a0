package query

import (
	"fmt"
	"strings"

	"repro/internal/optimizer"
)

// Node is one operator of an explainable plan tree.
type Node struct {
	// Op names the operator: "project", "aggregate", "cross", "exists",
	// "domain", "pairs", "fold", "groupfold" (a COUNT aggregate pushed into
	// the final fold as a weighted two-path composition), "star",
	// "enumerate", "scan", "semijoin", "bag" (a materialized hypertree-
	// decomposition bag relation) or "bagjoin" (the k-ary join over a
	// reduced bag tree). View maintenance plans add "maintain", "deltafold",
	// "deltastar", "deltatree" and "refresh" (see internal/view).
	Op string
	// Detail is free-form operator context (variables, thresholds, sizes).
	Detail string
	// Decision is the node's MM-vs-WCOJ choice where one applies: Strategy
	// "mm", "wcoj" or "nonmm" for fold and star nodes ("auto" when the choice
	// is deferred to run time, predicted plans only), the thresholds of MM
	// nodes, and the optimizer's estimates, modeled cost and margin (0 = the
	// planner priced nothing here).
	optimizer.Decision
	// Rows is the operator's output cardinality; -1 when not known (e.g. in
	// a predicted plan for a node that has not run).
	Rows int64
	// TimeNs is the operator's measured wall time in nanoseconds; 0 when the
	// node did not run or is too cheap to time (scan/bag leaves). Recorded on
	// every execution but only rendered when Plan.Analyzed is set.
	TimeNs int64
	// Children are the operator inputs.
	Children []*Node
}

// line renders the node's own EXPLAIN line. analyzed appends the measured
// per-node wall time for EXPLAIN ANALYZE output.
func (n *Node) line(analyzed bool) string {
	var b strings.Builder
	b.WriteString(n.Op)
	if n.Strategy != "" {
		fmt.Fprintf(&b, " strategy=%s", n.Strategy)
	}
	if n.Detail != "" {
		b.WriteByte(' ')
		b.WriteString(n.Detail)
	}
	b.WriteString(n.Audit())
	if n.Rows >= 0 {
		fmt.Fprintf(&b, " rows=%d", n.Rows)
	}
	if analyzed && n.TimeNs > 0 {
		fmt.Fprintf(&b, " time=%s", fmtDuration(n.TimeNs))
	}
	if analyzed {
		if ce, re := n.CostErr(n.TimeNs), n.RowsErr(n.Rows); ce > 0 || re > 0 {
			b.WriteString(" err=")
			if ce > 0 {
				fmt.Fprintf(&b, "cost×%.2f", ce)
			}
			if re > 0 {
				if ce > 0 {
					b.WriteByte(',')
				}
				fmt.Fprintf(&b, "rows×%.2f", re)
			}
		}
	}
	return b.String()
}

// fmtDuration renders nanoseconds in the unit a human reads fastest: whole
// µs below 1ms, fractional ms below 1s, fractional seconds above.
func fmtDuration(ns int64) string {
	switch {
	case ns < 1_000_000:
		return fmt.Sprintf("%.1fµs", float64(ns)/1e3)
	case ns < 1_000_000_000:
		return fmt.Sprintf("%.3fms", float64(ns)/1e6)
	default:
		return fmt.Sprintf("%.3fs", float64(ns)/1e9)
	}
}

// Plan is an explainable evaluation plan for one query.
type Plan struct {
	// Text is the canonical query text the plan was built for.
	Text string
	// Root is the plan tree.
	Root *Node
	// Predicted is true for plans built by Explain without executing: node
	// strategies deeper than the first composition level are deferred.
	Predicted bool
	// CacheHit reports whether the compiled query came from the plan cache.
	CacheHit bool
	// Analyzed turns on EXPLAIN ANALYZE rendering: per-node measured times
	// next to the cost model's est|OUT| predictions, plus a phase-breakdown
	// header. The measurements below are recorded on every execution; this
	// flag only controls whether String shows them.
	Analyzed bool
	// PrepareNs is the measured parse+plan(+cache lookup) wall time.
	PrepareNs int64
	// ExecNs is the measured execution wall time for the whole plan.
	ExecNs int64
	// BudgetBytes is the total bytes charged against the govern budget while
	// executing (charged even when no budget is configured, so EXPLAIN
	// ANALYZE always shows the query's working-set pressure).
	BudgetBytes int64
}

// String renders the plan as an indented EXPLAIN tree. With Analyzed set it
// becomes the EXPLAIN ANALYZE form: a phase-breakdown line after the header
// and measured per-node times alongside the predicted cardinalities.
func (p *Plan) String() string {
	var b strings.Builder
	b.WriteString("query: ")
	b.WriteString(p.Text)
	if p.CacheHit {
		b.WriteString("  [plan cache hit]")
	}
	if p.Predicted {
		b.WriteString("  [predicted]")
	}
	if p.Analyzed {
		b.WriteString("  [analyzed]")
	}
	b.WriteByte('\n')
	if p.Analyzed {
		fmt.Fprintf(&b, "analyze: prepare=%s exec=%s budget=%dB\n",
			fmtDuration(p.PrepareNs), fmtDuration(p.ExecNs), p.BudgetBytes)
	}
	if p.Root != nil {
		renderNode(&b, p.Root, "", true, p.Analyzed)
	}
	return b.String()
}

func renderNode(b *strings.Builder, n *Node, prefix string, last, analyzed bool) {
	branch, childPrefix := "├─ ", prefix+"│  "
	if last {
		branch, childPrefix = "└─ ", prefix+"   "
	}
	b.WriteString(prefix)
	b.WriteString(branch)
	b.WriteString(n.line(analyzed))
	b.WriteByte('\n')
	for i, c := range n.Children {
		renderNode(b, c, childPrefix, i == len(n.Children)-1, analyzed)
	}
}

// Strategies returns every concrete per-node strategy choice in the plan, in
// tree order — the compact summary tests and the EXPLAIN endpoint assert on.
func (p *Plan) Strategies() []string {
	var out []string
	p.Walk(func(n *Node) {
		if n.Strategy != "" {
			out = append(out, n.Op+"="+n.Strategy)
		}
	})
	return out
}

// Walk visits every plan node in tree order.
func (p *Plan) Walk(fn func(*Node)) {
	var walk func(n *Node)
	walk = func(n *Node) {
		if n == nil {
			return
		}
		fn(n)
		for _, c := range n.Children {
			walk(c)
		}
	}
	walk(p.Root)
}
