// Package acyclic is the composition step behind the paper's proposed
// extension to "arbitrary acyclic queries with projections ... building a
// query plan that decomposes the join into multiple subqueries and
// evaluates in the optimal way".
//
// Compose runs one fold V(a, c) = π_{a,c}(L(a, b) ⋈ R(b, c)) with the
// output-sensitive 2-path primitive of internal/joinproject, planned by
// optimizer.PlanTwoPath, and returns a Step recording the decision for
// EXPLAIN. The internal/query executor stacks these folds to collapse any
// acyclic join tree (chains, snowflakes, constant-restricted reachability)
// after semijoin reduction, and GHD bag materialization uses the same step.
// Every intermediate is itself deduplicated, which is why pushing
// projections through the plan wins over materializing the full join.
package acyclic

import (
	"fmt"

	"repro/internal/joinproject"
	"repro/internal/optimizer"
	"repro/internal/relation"
)

// Strategy names for composition decisions.
const (
	StrategyMM    = optimizer.StrategyMM
	StrategyWCOJ  = optimizer.StrategyWCOJ
	StrategyNonMM = optimizer.StrategyNonMM
)

// Options configures one composition.
type Options struct {
	// Join options forwarded to the 2-path kernel; its Delta1/Delta2 pin
	// the fold's thresholds.
	Join joinproject.Options
	// Optimizer, when non-nil, chooses MM or WCOJ from the calibrated cost
	// model; nil runs the fold with the MM algorithm.
	Optimizer *optimizer.Optimizer
	// Force pins the composition to one strategy (StrategyMM, StrategyWCOJ
	// or StrategyNonMM), overriding Optimizer. Empty or "auto" means no pin.
	Force string
}

// Step records one executed composition for plan reporting.
type Step struct {
	// Left and Right name the composed operands.
	Left, Right string
	// Decision is the strategy that ran the fold, the thresholds it ran with
	// and the planner's estimates (0 without a planner).
	optimizer.Decision
	// Rows is the actual output size of the fold.
	Rows int
}

// String renders the step as one EXPLAIN line.
func (s Step) String() string {
	out := fmt.Sprintf("fold %s ∘ %s strategy=%s", s.Left, s.Right, s.Strategy)
	if s.Strategy == StrategyMM && (s.Delta1 > 0 || s.Delta2 > 0) {
		out += fmt.Sprintf(" Δ1=%d Δ2=%d", s.Delta1, s.Delta2)
	}
	return out + s.Audit() + fmt.Sprintf(" rows=%d", s.Rows)
}

// Compose computes V(a, c) = π_{a,c}(L(a, b) ⋈ R(b, c)) as one planned
// composition step, indexed as a relation for the next fold to probe. The
// result is the same relation for every worker count.
func Compose(l, r *relation.Relation, opt Options) (*relation.Relation, Step) {
	out, step := ComposeGroups(l, r, opt)
	// The kernel's output is already grouped by x position over the
	// operands' own key lists, so indexing it is two counting passes.
	return out.Relation(l.Name() + "∘" + r.Name()), step
}

// ComposeGroups is Compose without the indexing: the fold's output in the
// kernel's own grouped form, for a last fold whose pairs are read once and
// never probed. Algorithm 1 joins the second columns of both operands, so
// the right-hand relation is swapped into (c, b) orientation first (O(1):
// the indexes are shared); the groups are then keyed by L.x = a over
// R.Swap().x = c, as required.
func ComposeGroups(l, r *relation.Relation, opt Options) (joinproject.Groups, Step) {
	halt := func() bool { return opt.Join.Stop != nil && opt.Join.Stop() }
	rs := r.Swap()
	dec := opt.Optimizer.PlanTwoPath(l, rs, opt.Join, opt.Force)
	// A tripped Stop short-circuits the whole step: the join itself polls
	// Stop, but the join and the output materialization each cost real time
	// on large intermediates, so skipping them keeps the cancel-to-return
	// latency bounded. The caller discards the (empty) result once it
	// observes the cancellation; a join interrupted midway is emptied too,
	// never returned partial.
	var out joinproject.Groups
	if !halt() {
		out = joinproject.TwoPathGroups(l, rs, dec.Options(opt.Join, l, rs), dec.Strategy != StrategyNonMM)
		if halt() {
			out = joinproject.Groups{}
		}
	}
	return out, Step{Left: l.Name(), Right: r.Name(), Decision: dec, Rows: len(out.ZPos)}
}
