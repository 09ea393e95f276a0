// Package acyclic extends the join-project engine beyond star queries, in
// the direction the paper's conclusion proposes: "extend our techniques to
// arbitrary acyclic queries with projections ... building a query plan that
// decomposes the join into multiple subqueries and evaluates in the optimal
// way".
//
// The package provides the composition layer the generic planner of
// internal/query is built on: every acyclic shape is evaluated by composing
// the output-sensitive 2-path and star primitives of internal/joinproject,
// each fold planned by optimizer.PlanTwoPath.
//
//   - Path queries P_k(x0, xk) = R1(x0,x1), R2(x1,x2), ..., Rk(x_{k-1},xk),
//     projected onto the endpoints. Adjacent relations are folded with the
//     2-path algorithm (each fold is a projection, so intermediates stay
//     output-sensitive rather than growing like the full join), either
//     left-deep or by balanced halving (bushy), mirroring a query plan's
//     choice of join order.
//
//   - Snowflake queries: a star whose arms are chains. Each arm is folded
//     into a (center, leaf) view with PathProject, then the arm views are
//     combined with the Section-3.2 star algorithm.
//
//   - Arbitrary folds: Compose exposes one planned composition step so the
//     internal/query executor can collapse any acyclic join tree, recording
//     a Step per node for EXPLAIN.
//
// Every intermediate is itself deduplicated, which is exactly the reason
// pushing projections through the plan wins over materializing the full
// acyclic join.
package acyclic

import (
	"fmt"

	"repro/internal/joinproject"
	"repro/internal/optimizer"
	"repro/internal/relation"
)

// Order selects the fold order for path queries.
type Order int

const (
	// OrderAuto picks bushy for k ≥ 4 relations and left-deep otherwise.
	OrderAuto Order = iota
	// OrderLeftDeep folds relations left to right.
	OrderLeftDeep
	// OrderBushy recursively folds halves — the balanced plan, whose
	// intermediates depend only on log-many compositions.
	OrderBushy
)

// Strategy names for composition decisions.
const (
	StrategyMM    = optimizer.StrategyMM
	StrategyWCOJ  = optimizer.StrategyWCOJ
	StrategyNonMM = optimizer.StrategyNonMM
)

// Options configures acyclic evaluation.
type Options struct {
	// Join options forwarded to every 2-path / star composition; its
	// Delta1/Delta2 pin the thresholds of every fold.
	Join joinproject.Options
	// Order selects the fold order for chains.
	Order Order
	// Optimizer, when non-nil, chooses MM or WCOJ per composition from the
	// calibrated cost model; nil runs every fold with the MM algorithm.
	Optimizer *optimizer.Optimizer
	// Force pins every composition to one strategy (StrategyMM, StrategyWCOJ
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
// composition step. Algorithm 1 joins the second columns of both operands, so
// the right-hand relation is swapped into (c, b) orientation first (O(1): the
// indexes are shared); the output pairs are then (L.x, R.Swap().x) = (a, c)
// as required. The result is the same relation for every worker count.
func Compose(l, r *relation.Relation, opt Options) (*relation.Relation, Step) {
	halt := func() bool { return opt.Join.Stop != nil && opt.Join.Stop() }
	rs := r.Swap()
	dec := opt.Optimizer.PlanTwoPath(l, rs, opt.Join, opt.Force, 0)
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
	// The kernel's output is already grouped by x position over the
	// operands' own key lists, so indexing it is two counting passes.
	v := out.Relation(l.Name() + "∘" + r.Name())
	return v, Step{Left: l.Name(), Right: r.Name(), Decision: dec, Rows: v.Size()}
}

// PathProject evaluates π_{x0,xk}(R1(x0,x1) ⋈ ... ⋈ Rk(x_{k-1},x_k)).
// Relations are oriented head→tail: Ri's first column joins R(i−1)'s second.
func PathProject(rels []*relation.Relation, opt Options) ([][2]int32, error) {
	v, _, err := FoldPathPlanned(rels, opt)
	if err != nil {
		return nil, err
	}
	out := make([][2]int32, 0, v.Size())
	for _, p := range v.Pairs() {
		out = append(out, [2]int32{p.X, p.Y})
	}
	return out, nil
}

// FoldPathPlanned reduces the chain to a single (head, tail) relation,
// recording every composition for plan reporting.
func FoldPathPlanned(rels []*relation.Relation, opt Options) (*relation.Relation, []Step, error) {
	if len(rels) == 0 {
		return nil, nil, fmt.Errorf("acyclic: empty path query")
	}
	var steps []Step
	v := foldPath(rels, opt, &steps)
	return v, steps, nil
}

// foldPath reduces the chain to a single (head, tail) relation. steps, when
// non-nil, accumulates the composition records.
func foldPath(rels []*relation.Relation, opt Options, steps *[]Step) *relation.Relation {
	if len(rels) == 1 {
		return rels[0]
	}
	order := opt.Order
	if order == OrderAuto {
		if len(rels) >= 4 {
			order = OrderBushy
		} else {
			order = OrderLeftDeep
		}
	}
	if order == OrderBushy {
		mid := len(rels) / 2
		left := foldPath(rels[:mid], opt, steps)
		right := foldPath(rels[mid:], opt, steps)
		return compose(left, right, opt, steps)
	}
	acc := rels[0]
	for _, next := range rels[1:] {
		acc = compose(acc, next, opt, steps)
	}
	return acc
}

func compose(l, r *relation.Relation, opt Options, steps *[]Step) *relation.Relation {
	v, step := Compose(l, r, opt)
	if steps != nil {
		*steps = append(*steps, step)
	}
	return v
}
