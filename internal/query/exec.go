package query

import (
	"context"
	"fmt"
	"slices"
	"strings"
	"time"

	"repro/internal/acyclic"
	"repro/internal/govern"
	"repro/internal/joinproject"
	"repro/internal/optimizer"
	"repro/internal/relation"
	"repro/internal/tuples"
)

// ExecOptions configures one evaluation of a Prepared query.
type ExecOptions struct {
	// Optimizer supplies the per-node MM/WCOJ cost decisions; nil falls back
	// to heuristic-threshold MM folds.
	Optimizer *optimizer.Optimizer
	// Workers bounds the parallelism (≤ 0: all cores). A workers hint in the
	// query overrides it.
	Workers int
	// Strategy is the engine-level pin ("", "auto", "mm", "wcoj", "nonmm").
	// A strategy hint in the query overrides it.
	Strategy string
	// Observer, when non-nil, receives live execution progress for the
	// activity view. Calls happen on the evaluating goroutine at operator
	// granularity, so implementations must be cheap (atomics, no locks on the
	// hot path).
	Observer ExecObserver
	// DeferTuples leaves Result.Tuples nil wherever the answer's last form
	// (a final fold's groups, a star's rows, a cross product) can be
	// projected on demand: the caller then reads the rows once, in order,
	// through Result.EachRow, and no int64 copy of the answer is built.
	// Budgets are charged as if Tuples had been built, and every check that
	// can fail has run by the time Execute returns.
	DeferTuples bool
}

// ExecObserver is the executor's progress hook: ExecNode fires when
// evaluation enters a plan node (before its kernel work, so an in-flight
// view shows what is running now, not what last finished); ExecProgress
// reports rows materialized and budget-bytes charged, cumulatively
// per call site.
type ExecObserver interface {
	ExecNode(op, detail string)
	ExecProgress(rows, bytes int64)
}

// Result is one evaluated query: column labels, distinct output tuples and
// the plan that produced them (with the actual per-node strategy choices).
// Under ExecOptions.DeferTuples Tuples may be nil; Len and EachRow read the
// answer either way.
type Result struct {
	Columns []string
	Tuples  [][]int64
	Plan    *Plan
	// deferred, when non-nil, holds the answer in its last form in place of
	// Tuples (ExecOptions.DeferTuples), and head forms its rows.
	deferred *answer
	head     *HeadLayout
}

// Len returns the number of answer rows, whether or not Tuples was built.
func (r *Result) Len() int {
	if r.deferred == nil {
		return len(r.Tuples)
	}
	return r.head.rowCount(r.deferred)
}

// EachRow hands every answer row to fn, in Tuples' order: Tuples' own rows
// when it was built, otherwise each head row as HeadLayout.Project forms it
// from the deferred answer, in one reused slice that fn must not keep.
func (r *Result) EachRow(fn func(row []int64)) {
	if r.deferred == nil {
		for _, t := range r.Tuples {
			fn(t)
		}
		return
	}
	r.head.project(r.deferred, fn)
}

// Execute evaluates the prepared query. The context is checked between plan
// nodes (folds, components), so cancellation takes effect at operator
// granularity. Execute never mutates the Prepared and is safe to call
// concurrently on a shared instance.
func (p *Prepared) Execute(ctx context.Context, opts ExecOptions) (*Result, error) {
	ex := p.newExecutor(ctx, opts, false)
	return ex.run()
}

// Explain builds the predicted plan without executing. Strategy choices that
// depend on intermediate fold results are reported as "auto" (deferred);
// first-level choices use the real cost model on the reduced relations.
func (p *Prepared) Explain(opts ExecOptions) *Plan {
	ex := p.newExecutor(context.Background(), opts, true)
	res, err := ex.run()
	if err != nil || res == nil {
		return &Plan{Text: p.Text, Predicted: true, Root: &Node{Op: "error", Detail: fmt.Sprint(err), Rows: -1}}
	}
	res.Plan.Predicted = true
	return res.Plan
}

type executor struct {
	p      *Prepared
	ctx    context.Context
	dry    bool
	aopt   acyclic.Options
	budget *govern.Budget // per-query materialization budget (nil: unlimited)
	// pushGroup marks a head of the form (g, COUNT(v)) whose component
	// structure lets the aggregate run inside the final fold (a weighted
	// two-path composition) instead of materializing the distinct pairs and
	// grouping them afterwards; groupVar/countVar are the variable indices.
	pushGroup          bool
	groupVar, countVar int
	// charged accumulates every byte debited through charge, budget or not —
	// the working-set figure EXPLAIN ANALYZE reports per query.
	charged int64
	watch   ExecObserver // nil unless an activity view is attached
	// deferTuples is ExecOptions.DeferTuples.
	deferTuples bool
}

func (p *Prepared) newExecutor(ctx context.Context, opts ExecOptions, dry bool) *executor {
	strategy := opts.Strategy
	if p.Query.Hints.Strategy != "" {
		strategy = p.Query.Hints.Strategy
	}
	workers := opts.Workers
	if p.Query.Hints.Workers > 0 {
		workers = p.Query.Hints.Workers
	}
	ex := &executor{p: p, ctx: ctx, dry: dry, budget: govern.FromContext(ctx), deferTuples: opts.DeferTuples}
	if !dry {
		ex.watch = opts.Observer
	}
	ex.aopt = acyclic.Options{Join: joinproject.Options{Workers: workers}, Optimizer: opts.Optimizer}
	if !dry {
		// Coarse cancellation polled inside the long kernel tile loops, so a
		// canceled heavy query stops mid-multiplication instead of at the
		// next operator boundary.
		ex.aopt.Join.Stop = func() bool { return ctx.Err() != nil }
	}
	switch strategy {
	case acyclic.StrategyMM, acyclic.StrategyWCOJ, acyclic.StrategyNonMM:
		ex.aopt.Force = strategy
	}
	ex.detectGroupPush()
	return ex
}

// detectGroupPush decides whether the COUNT aggregate can be evaluated
// inside the final fold: the head must be exactly (g, COUNT(v)) over two
// distinct variables living in the same component, with every other
// component head-free (a pure filter). When it applies, the final
// composition runs the counting kernel (TwoPathGroupBy) and the distinct
// (g, v) pairs are never materialized — the aggregate is output-sensitive
// in the count column.
func (ex *executor) detectGroupPush() {
	p, h := ex.p, ex.p.head
	if h.CountIdx < 0 || len(h.Pos) != 2 || len(h.Vars) != 2 {
		return
	}
	cv := h.Vars[h.Pos[h.CountIdx]]
	g := h.Vars[h.Pos[1-h.CountIdx]]
	var home *component
	for _, c := range p.comps {
		hasG, hasCV := slices.Contains(c.heads, g), slices.Contains(c.heads, cv)
		switch {
		case hasG && hasCV:
			home = c
		case hasG || hasCV:
			return // split across components: the cross product must group
		case len(c.heads) > 0:
			return // another component produces rows
		}
	}
	if home == nil || home.bags != nil {
		return // bag-tree components project after the k-ary join
	}
	ex.pushGroup, ex.groupVar, ex.countVar = true, g, cv
}

func (ex *executor) check() error { return ex.ctx.Err() }

// Coarse per-row footprints for budget accounting: an indexed relation pair
// (8 payload bytes + index share) and a materialized [][]int32 row (slice
// header + k values).
const pairBudgetBytes = 32

func rowBudgetBytes(cols int) int { return 24 + 4*cols }

// charge debits the query budget for rows materialized rows of about
// rowBytes each; a nil budget is free.
func (ex *executor) charge(rows, rowBytes int) error {
	ex.charged += int64(rows) * int64(rowBytes)
	if ex.watch != nil {
		ex.watch.ExecProgress(int64(rows), int64(rows)*int64(rowBytes))
	}
	return ex.budget.ChargeRows(int64(rows), int64(rowBytes))
}

// nodeEvent reports entry into a plan node to the attached observer.
func (ex *executor) nodeEvent(op, detail string) {
	if ex.watch != nil {
		ex.watch.ExecNode(op, detail)
	}
}

// answer is a set of distinct rows over the head variables cols, in the
// form its producer left it. A final fold leaves its groups (pairs, columns
// x and z, sorted so that they run x ascending, then z ascending); every
// other producer leaves rows. A pushed-down COUNT aggregate carries counts
// too: rows hold the group values (one column) and counts[i] the
// distinct-partner count of row i.
type answer struct {
	cols   []int
	rows   [][]int32
	pairs  *joinproject.Groups
	counts []int64
}

// len returns the number of rows.
func (a *answer) len() int {
	if a.pairs != nil {
		return len(a.pairs.ZPos)
	}
	return len(a.rows)
}

// each hands every row to fn, in order; a final fold's pairs pass through
// one reused two-column row.
func (a *answer) each(fn func(r []int32)) {
	g := a.pairs
	if g == nil {
		for _, r := range a.rows {
			fn(r)
		}
		return
	}
	r := make([]int32, 2)
	for i, x := range g.XKeys {
		r[0] = x
		for _, zp := range g.ZPos[g.Off[i]:g.Off[i+1]] {
			r[1] = g.ZKeys[zp]
			fn(r)
		}
	}
}

// rowForm returns the rows as a [][]int32, writing a final fold's pairs out
// as one Block; only a cross product with another component needs that.
func (a *answer) rowForm() [][]int32 {
	if a.pairs == nil {
		return a.rows
	}
	rows, i := tuples.Block[int32](a.len(), 2), 0
	a.each(func(r []int32) {
		copy(rows[i], r)
		i++
	})
	return rows
}

// compResult is one component's contribution: its answer over the head
// variables it binds (none for a pure filter), and its plan subtree. A
// grouped result carries the pushed-down COUNT aggregate.
type compResult struct {
	answer
	node    *Node
	grouped bool
}

func (ex *executor) run() (*Result, error) {
	start := time.Now()
	p, q := ex.p, ex.p.Query
	res := &Result{Columns: make([]string, len(q.Head))}
	for i, h := range q.Head {
		res.Columns[i] = h.String()
	}

	var producers []*compResult
	var compNodes []*Node
	if p.empty {
		compNodes = append(compNodes, &Node{Op: "empty", Detail: p.emptyWhy, Rows: 0})
	} else {
		for _, c := range p.comps {
			if err := ex.check(); err != nil {
				return nil, err
			}
			cr, err := ex.evalComponent(c)
			if err != nil {
				return nil, err
			}
			compNodes = append(compNodes, cr.node)
			if len(cr.cols) > 0 {
				producers = append(producers, cr)
			}
		}
	}

	// Assemble: cross product of the row-producing components, then map the
	// joined columns onto the head terms. A grouped producer (pushed-down
	// COUNT) is necessarily alone and maps straight onto the head.
	var grouped *compResult
	if len(producers) == 1 && producers[0].grouped {
		grouped = producers[0]
	}
	// The seed is the one zero-column row; against it a producer's answer
	// is the product itself, in whatever form it was left.
	ans := &answer{rows: [][]int32{{}}}
	if !ex.dry && !p.empty && grouped == nil {
		for i, pr := range producers {
			cols := append(slices.Clip(ans.cols), pr.cols...)
			// The product's size is known before it is built: a budget must
			// refuse it before the memory is spent.
			if err := ex.charge(ans.len()*pr.len(), rowBudgetBytes(len(cols))); err != nil {
				return nil, err
			}
			if i == 0 {
				ans = &pr.answer
			} else {
				ans = &answer{cols: cols, rows: crossRows(ans.rowForm(), pr.rowForm())}
			}
		}
	}

	top := &Node{Op: "project", Detail: "[" + headLabels(q) + "]", Rows: -1}
	if q.CountIndex() >= 0 {
		top.Op = "aggregate"
		if grouped != nil || (ex.dry && ex.pushGroup) {
			top.Detail += " (count pushed into fold)"
		}
	}
	switch {
	case len(compNodes) == 1:
		top.Children = compNodes
	default:
		top.Children = []*Node{{Op: "cross", Rows: -1, Children: compNodes}}
	}
	res.Plan = &Plan{Text: p.Text, Root: top}
	if ex.dry {
		return res, nil
	}

	switch {
	case p.empty:
		ans = &answer{}
	case grouped != nil:
		ans = &grouped.answer
	}
	if ex.deferTuples && !p.head.grouping(ans) {
		res.deferred, res.head = ans, p.head
	} else {
		res.Tuples = p.head.block(ans)
	}
	if err := ex.charge(res.Len(), 24+8*len(q.Head)); err != nil {
		return nil, err
	}
	top.Rows = int64(res.Len())
	if len(top.Children) == 1 && top.Children[0].Op == "cross" {
		top.Children[0].Rows = int64(ans.len())
	}
	// The kernels' Stop hook abandons work mid-sweep on cancellation, so a
	// deadline that fires inside the final kernel leaves truncated rows here.
	// A tripped context must always surface as an error, never as a silently
	// incomplete 200.
	if err := ex.check(); err != nil {
		return nil, err
	}
	top.TimeNs = time.Since(start).Nanoseconds()
	res.Plan.ExecNs = top.TimeNs
	res.Plan.BudgetBytes = ex.charged
	return res, nil
}

// headLabels renders the head terms for the plan detail.
func headLabels(q *Query) string {
	parts := make([]string, len(q.Head))
	for i, h := range q.Head {
		parts[i] = h.String()
	}
	return strings.Join(parts, ", ")
}

// crossRows returns the cross product of two row sets, a's columns first.
// Against the seed — the one zero-column row — that is b itself.
func crossRows(a, b [][]int32) [][]int32 {
	if len(a) == 1 && len(a[0]) == 0 {
		return b
	}
	if len(a) == 0 || len(b) == 0 {
		return nil
	}
	out := tuples.Block[int32](len(a)*len(b), len(a[0])+len(b[0]))
	for i, ra := range a {
		for j, rb := range b {
			r := out[i*len(b)+j]
			copy(r, ra)
			copy(r[len(ra):], rb)
		}
	}
	return out
}

// liveEdge is one edge of the working tree during Steiner pruning and
// degree-2 collapsing, carrying its plan subtree. The edge a component's
// last fold leaves is never probed, so it keeps the fold's groups (pairs,
// keyed by a over b) in place of an indexed relation.
type liveEdge struct {
	a, b  int
	rel   *relation.Relation // nil in dry runs for folded edges, and beside pairs
	pairs *joinproject.Groups
	node  *Node
}

// evalComponent evaluates one component tree down to its head variables.
func (ex *executor) evalComponent(c *component) (*compResult, error) {
	p := ex.p
	if c.bags != nil {
		return ex.evalBagTree(c)
	}
	detail := varNames(p.vars, c.vars)
	if c.ghd != "" {
		detail += " " + c.ghd
	}
	compNode := &Node{Op: "component", Detail: detail, Rows: -1}
	if len(c.heads) == 0 {
		compNode.Op = "exists"
		compNode.Rows = 1
		return &compResult{node: compNode}, nil
	}

	heads := map[int]bool{}
	for _, h := range c.heads {
		heads[h] = true
	}

	live := make([]liveEdge, 0, len(c.edges))
	for i := range c.edges {
		e := &c.edges[i]
		detail := fmt.Sprintf("%s → [%s, %s]", e.label, p.vars[e.a], p.vars[e.b])
		if e.rel.Size() != e.origSize {
			detail += fmt.Sprintf(" (reduced %d→%d)", e.origSize, e.rel.Size())
		}
		op, strategy := "scan", ""
		if e.bag {
			op, strategy = "bag", e.bagStrategy
		}
		live = append(live, liveEdge{a: e.a, b: e.b, rel: e.rel,
			node: &Node{Op: op, Decision: optimizer.Decision{Strategy: strategy}, Detail: detail, Rows: int64(e.rel.Size())}})
	}

	// Steiner prune: non-head leaf branches only filter, and the semijoin
	// reduction has already applied that filter — drop them.
	var prunedNodes []*Node
	for {
		deg := map[int]int{}
		for _, e := range live {
			deg[e.a]++
			deg[e.b]++
		}
		removed := false
		for i := 0; i < len(live); i++ {
			e := live[i]
			var leaf int = -1
			if deg[e.a] == 1 && !heads[e.a] {
				leaf = e.a
			} else if deg[e.b] == 1 && !heads[e.b] {
				leaf = e.b
			}
			if leaf < 0 {
				continue
			}
			prunedNodes = append(prunedNodes,
				&Node{Op: "semijoin", Detail: e.node.Detail + " (filter absorbed by reduction)", Rows: -1})
			live = append(live[:i], live[i+1:]...)
			removed = true
			break
		}
		if !removed {
			break
		}
	}

	cr := &compResult{node: compNode}
	var err error
	if len(live) == 0 {
		// A single head variable remains: its reduced domain is the answer.
		h := c.heads[0]
		cr.cols = []int{h}
		dom := c.allowed[h]
		if !ex.dry {
			cr.rows = columnRows(len(dom), func(i int) int32 { return dom[i] })
		}
		compNode.Children = append([]*Node{{
			Op: "domain", Detail: p.vars[h], Rows: int64(len(dom)),
		}}, prunedNodes...)
		compNode.Rows = int64(len(dom))
		return cr, nil
	}

	var groupedCR *compResult
	if live, groupedCR, err = ex.collapse(live, heads); err != nil {
		return nil, err
	}
	final := groupedCR
	if final == nil {
		if final, err = ex.finalNode(c, live, heads); err != nil {
			return nil, err
		}
	}
	cr.answer, cr.grouped = final.answer, final.grouped
	compNode.Children = append([]*Node{final.node}, prunedNodes...)
	if !ex.dry {
		compNode.Rows = int64(cr.len())
	}
	return cr, nil
}

// collapse folds away every non-head degree-2 variable with a planned
// two-path composition, shrinking the tree until only head variables and
// branching variables remain. When the last fold would produce exactly the
// (group, count) pair of a pushed-down aggregate, it runs the counting
// kernel instead and returns the grouped result (second value) without
// materializing the distinct pairs. Any other fold that leaves a single
// edge between two head variables keeps its groups: they are the
// component's answer, read once in order and never indexed.
func (ex *executor) collapse(live []liveEdge, heads map[int]bool) ([]liveEdge, *compResult, error) {
	p := ex.p
	for {
		deg := map[int]int{}
		for _, e := range live {
			deg[e.a]++
			deg[e.b]++
		}
		// Lowest-index first keeps plans deterministic: ranging over the
		// degree map would let Go's map order pick the fold order.
		v := -1
		for cand := 0; cand < len(p.vars); cand++ {
			if deg[cand] == 2 && !heads[cand] {
				v = cand
				break
			}
		}
		if v < 0 {
			return live, nil, nil
		}
		if err := ex.check(); err != nil {
			return nil, nil, err
		}
		// Locate the two edges at v and orient them (u→v), (v→w).
		i1, i2 := -1, -1
		for i, e := range live {
			if e.a == v || e.b == v {
				if i1 < 0 {
					i1 = i
				} else {
					i2 = i
					break
				}
			}
		}
		e1, e2 := live[i1], live[i2]
		cr, err := ex.tryGroupedFold(live, e1, e2, v)
		if err != nil {
			return nil, nil, err
		}
		if cr != nil {
			return nil, cr, nil
		}
		r1, u := orient(e1, v, false)
		r2, w := orient(e2, v, true)
		folded := liveEdge{a: u, b: w}
		node := &Node{Op: "fold", Rows: -1, Children: []*Node{e1.node, e2.node}}
		detail := fmt.Sprintf("π[%s, %s] eliminating %s", p.vars[u], p.vars[w], p.vars[v])
		if ex.dry {
			ex.predictFold(r1, r2, node, detail)
		} else {
			ex.nodeEvent("fold", detail)
			t0 := time.Now()
			var step acyclic.Step
			if len(live) == 2 && heads[u] && heads[w] {
				var pairs joinproject.Groups
				pairs, step = acyclic.ComposeGroups(r1, r2, ex.aopt)
				pairs.Sort()
				folded.pairs = &pairs
			} else {
				folded.rel, step = acyclic.Compose(r1, r2, ex.aopt)
			}
			node.TimeNs = time.Since(t0).Nanoseconds()
			foldTotal.With("fold", step.Strategy).Inc()
			// The Stop hook makes Compose return partial output when the
			// context trips mid-kernel; discard it rather than fold it in.
			if err := ex.check(); err != nil {
				return nil, nil, err
			}
			if err := ex.charge(step.Rows, pairBudgetBytes); err != nil {
				return nil, nil, err
			}
			node.setFold(step.Decision, detail)
			node.Rows = int64(step.Rows)
		}
		folded.node = node
		// Replace the two edges with the fold (remove the higher index first).
		if i1 > i2 {
			i1, i2 = i2, i1
		}
		live = append(live[:i2], live[i2+1:]...)
		live[i1] = folded
	}
}

// tryGroupedFold runs the final fold of a pushed-down aggregate as a
// weighted two-path composition: the counting kernel delivers per-group
// distinct-partner counts directly, so the distinct (group, count-var)
// pairs are never materialized. Returns nil when this fold is not the
// aggregate's final fold.
func (ex *executor) tryGroupedFold(live []liveEdge, e1, e2 liveEdge, v int) (*compResult, error) {
	if !ex.pushGroup || len(live) != 2 {
		return nil, nil
	}
	p := ex.p
	// Orient both edges with the eliminated variable on the Y side, as the
	// counting 2-path π_{x,z}(R(x,y) ⋈ S(z,y)) expects.
	r1, u := orient(e1, v, false)
	r2, w := orient(e2, v, false)
	if u == w {
		return nil, nil
	}
	g, cv := ex.groupVar, ex.countVar
	if !(u == g && w == cv) && !(u == cv && w == g) {
		return nil, nil
	}
	node := &Node{Op: "groupfold", Rows: -1, Children: []*Node{e1.node, e2.node}}
	detail := fmt.Sprintf("γ[%s; COUNT(%s)] eliminating %s (count pushed into fold)",
		p.vars[g], p.vars[cv], p.vars[v])
	cr := &compResult{answer: answer{cols: []int{g}}, node: node, grouped: true}
	gRel, cvRel := r1, r2
	if u == cv {
		gRel, cvRel = r2, r1
	}
	// No planner: the counting fold runs MM on the closed-form thresholds
	// unless the query pins a strategy.
	var noPlanner *optimizer.Optimizer
	dec := noPlanner.PlanTwoPath(gRel, cvRel, ex.aopt.Join, ex.aopt.Force)
	node.Decision, node.Detail = dec, detail
	if ex.dry {
		return cr, nil
	}
	if dec.Strategy == acyclic.StrategyNonMM {
		// The counting kernel has no Lemma-2 twin; its combinatorial mode is
		// the all-light plan, reported under the pinned label.
		dec.Strategy = acyclic.StrategyWCOJ
	}
	ex.nodeEvent("groupfold", detail)
	t0 := time.Now()
	groups := joinproject.TwoPathGroupBy(gRel, cvRel, dec.Options(ex.aopt.Join, gRel, cvRel))
	node.TimeNs = time.Since(t0).Nanoseconds()
	foldTotal.With("groupfold", node.Strategy).Inc()
	if err := ex.check(); err != nil {
		return nil, err
	}
	if err := ex.charge(len(groups), rowBudgetBytes(1)+8); err != nil {
		return nil, err
	}
	cr.rows = columnRows(len(groups), func(i int) int32 { return groups[i].X })
	cr.counts = make([]int64, len(groups))
	for i, gc := range groups {
		cr.counts[i] = gc.Distinct
	}
	node.Rows = int64(len(groups))
	return cr, nil
}

// predictFold plans a fold without running it, so a predicted-only EXPLAIN
// already shows the optimizer's estimates and decision margin. Without a pin,
// a fold over an operand that is itself a deferred fold (nil in dry runs), or
// with no planner attached, is reported as decided at run time.
func (ex *executor) predictFold(r1, r2 *relation.Relation, node *Node, detail string) {
	if ex.aopt.Force != "" {
		node.Strategy, node.Detail = ex.aopt.Force, detail
		return
	}
	if r1 == nil || r2 == nil || ex.aopt.Optimizer == nil {
		node.Strategy, node.Detail = "auto", detail+" (decided at run time)"
		return
	}
	node.setFold(ex.aopt.Optimizer.PlanTwoPath(r1, r2.Swap(), ex.aopt.Join, ""), detail)
}

// setFold fills a fold node from its decision record; MM folds show their
// thresholds in the detail.
func (n *Node) setFold(dec optimizer.Decision, detail string) {
	if dec.Strategy == acyclic.StrategyMM {
		detail += fmt.Sprintf(" Δ1=%d Δ2=%d", dec.Delta1, dec.Delta2)
	}
	n.Decision, n.Detail = dec, detail
}

// orient returns e's relation with variable v on the Y side (asHead=false,
// giving (other→v)) or on the X side (asHead=true, giving (v→other)), along
// with the other endpoint. Swapping is O(1); dry-run folded edges have a nil
// relation, which propagates.
func orient(e liveEdge, v int, asHead bool) (*relation.Relation, int) {
	other := e.a
	vOnX := e.a == v
	if vOnX {
		other = e.b
	}
	rel := e.rel
	if rel != nil && vOnX != asHead {
		rel = rel.Swap()
	}
	return rel, other
}

// finalNode turns the collapsed tree into rows: a single edge's pairs, a
// star around a non-head center, or generic tree enumeration.
func (ex *executor) finalNode(c *component, live []liveEdge, heads map[int]bool) (*compResult, error) {
	if len(live) == 1 {
		e := live[0]
		g, cv := ex.groupVar, ex.countVar
		if ex.pushGroup && ((e.a == g && e.b == cv) || (e.a == cv && e.b == g)) {
			// The aggregate over a single remaining edge is its index
			// degree profile: COUNT(cv) per g is the g-side partner count.
			rel, _ := orient(e, cv, false) // (g, cv) orientation
			node := &Node{Op: "groupfold", Rows: -1, Children: []*Node{e.node},
				Detail: fmt.Sprintf("γ[%s; COUNT(%s)] from index degrees (count pushed into scan)",
					ex.p.vars[g], ex.p.vars[cv])}
			cr := &compResult{answer: answer{cols: []int{g}}, node: node, grouped: true}
			if !ex.dry {
				ix := rel.ByX()
				if err := ex.charge(ix.NumKeys(), rowBudgetBytes(1)+8); err != nil {
					return nil, err
				}
				cr.rows = columnRows(ix.NumKeys(), ix.Key)
				cr.counts = make([]int64, ix.NumKeys())
				for i := range cr.counts {
					cr.counts[i] = int64(ix.Degree(i))
				}
				node.Rows = int64(ix.NumKeys())
			}
			return cr, nil
		}
		cr := &compResult{answer: answer{cols: []int{e.a, e.b}, pairs: e.pairs}, node: e.node}
		if !ex.dry {
			if err := ex.charge(cr.len(), rowBudgetBytes(2)); err != nil {
				return nil, err
			}
			if e.pairs != nil {
				return cr, nil
			}
			// The index walk is the relation's (x, y) order, the order the
			// sorted pairs of a last fold run in.
			cr.rows = tuples.Block[int32](e.rel.Size(), 2)
			ix, i := e.rel.ByX(), 0
			for k := 0; k < ix.NumKeys(); k++ {
				x := ix.Key(k)
				for _, y := range ix.List(k) {
					cr.rows[i][0], cr.rows[i][1] = x, y
					i++
				}
			}
		}
		return cr, nil
	}

	// Star detection: a common non-head center with head leaves.
	center := -1
	for _, cand := range []int{live[0].a, live[0].b} {
		ok := true
		for _, e := range live {
			if e.a != cand && e.b != cand {
				ok = false
				break
			}
		}
		if ok {
			center = cand
			break
		}
	}
	if center >= 0 && !heads[center] {
		return ex.starNode(live, center)
	}
	return ex.enumerate(c, live, heads)
}

// starNode runs the Section-3.2 star primitive over the arm views.
func (ex *executor) starNode(live []liveEdge, center int) (*compResult, error) {
	p := ex.p
	if err := ex.check(); err != nil {
		return nil, err
	}
	views := make([]*relation.Relation, len(live))
	leaves := make([]int, len(live))
	children := make([]*Node, len(live))
	ready := true
	for i, e := range live {
		// Orient each arm as (leaf, center): the star joins on the Y column.
		rel, leaf := orient(e, center, false)
		views[i], leaves[i] = rel, leaf
		children[i] = e.node
		if rel == nil {
			ready = false
		}
	}
	leafNames := make([]string, len(leaves))
	for i, l := range leaves {
		leafNames[i] = p.vars[l]
	}
	node := &Node{Op: "star", Rows: -1, Children: children,
		Detail: fmt.Sprintf("center %s leaves [%s]", p.vars[center], strings.Join(leafNames, ", "))}
	cr := &compResult{answer: answer{cols: leaves}, node: node}

	// Only a predicted plan can have an arm that is itself a deferred fold.
	if !ready && ex.aopt.Force == "" {
		node.Strategy = "auto"
		node.Detail += " (decided at run time)"
		return cr, nil
	}
	node.Decision = ex.aopt.Optimizer.PlanStar(views, ex.aopt.Join, ex.aopt.Force)
	if ex.dry {
		return cr, nil
	}
	jopt := node.Decision.Options(ex.aopt.Join, views...)
	ex.nodeEvent("star", node.Detail)
	t0 := time.Now()
	if node.Strategy == acyclic.StrategyNonMM {
		cr.rows = joinproject.StarNonMM(views, jopt)
	} else {
		cr.rows = joinproject.StarMM(views, jopt)
	}
	node.TimeNs = time.Since(t0).Nanoseconds()
	foldTotal.With("star", node.Strategy).Inc()
	if err := ex.check(); err != nil {
		return nil, err
	}
	if err := ex.charge(len(cr.rows), rowBudgetBytes(len(leaves))); err != nil {
		return nil, err
	}
	node.Rows = int64(len(cr.rows))
	return cr, nil
}

// enumerate handles the general shape (head variables at interior positions,
// multiple branching variables): distinct-preserving backtracking over the
// collapsed tree, with memoized subtree results. This is the combinatorial
// fallback — the tree analogue of the WCOJ plan. It is not an instance of
// the variable-at-a-time join in internal/wcoj and cannot become one: that
// visits every full assignment, while this never enumerates the full join —
// it computes, per (variable, value), the distinct head projections of the
// subtree below once, and combines them by cross product.
func (ex *executor) enumerate(c *component, live []liveEdge, heads map[int]bool) (*compResult, error) {
	p := ex.p
	if err := ex.check(); err != nil {
		return nil, err
	}
	type halfEdge struct {
		e     *liveEdge
		other int
	}
	adj := map[int][]halfEdge{}
	for i := range live {
		e := &live[i]
		adj[e.a] = append(adj[e.a], halfEdge{e: e, other: e.b})
		adj[e.b] = append(adj[e.b], halfEdge{e: e, other: e.a})
	}
	root := c.heads[0]

	// Column order: DFS over the rooted tree, head variables in visit order.
	var colsOf func(v, parent int) []int
	colsOf = func(v, parent int) []int {
		var cols []int
		if heads[v] {
			cols = append(cols, v)
		}
		for _, h := range adj[v] {
			if h.other != parent {
				cols = append(cols, colsOf(h.other, v)...)
			}
		}
		return cols
	}
	cols := colsOf(root, -1)

	node := &Node{Op: "enumerate", Decision: optimizer.Decision{Strategy: acyclic.StrategyWCOJ}, Rows: -1,
		Detail: "tree backtracking + dedup over " + varNames(p.vars, c.vars)}
	for i := range live {
		node.Children = append(node.Children, live[i].node)
	}
	cr := &compResult{answer: answer{cols: cols}, node: node}
	if ex.dry {
		return cr, nil
	}

	memo := map[int]map[int32][][]int32{}
	var solve func(v, parent int, val int32) [][]int32
	solve = func(v, parent int, val int32) [][]int32 {
		if m := memo[v]; m != nil {
			if rows, ok := m[val]; ok {
				return rows
			}
		}
		rows := [][]int32{nil}
		if heads[v] {
			rows = [][]int32{{val}}
		}
		for _, h := range adj[v] {
			if h.other == parent {
				continue
			}
			partners := lookupLive(h.e, v, val)
			var sub [][]int32
			for _, pv := range partners {
				sub = append(sub, solve(h.other, v, pv)...)
			}
			if !heads[h.other] {
				// Distinct partner values can project to the same head
				// tuple once the non-head connector is dropped.
				sub = dedupRows(sub)
			}
			rows = crossRows(rows, sub)
		}
		if memo[v] == nil {
			memo[v] = map[int32][][]int32{}
		}
		memo[v][val] = rows
		return rows
	}

	ex.nodeEvent("enumerate", node.Detail)
	t0 := time.Now()
	var out [][]int32
	for _, val := range c.allowed[root] {
		batch := solve(root, -1, val)
		if err := ex.charge(len(batch), rowBudgetBytes(len(cols))); err != nil {
			return nil, err
		}
		out = append(out, batch...)
	}
	if !heads[root] {
		out = dedupRows(out)
	}
	cr.rows = out
	node.Rows = int64(len(out))
	node.TimeNs = time.Since(t0).Nanoseconds()
	foldTotal.With("enumerate", acyclic.StrategyWCOJ).Inc()
	return cr, nil
}

// evalBagTree evaluates a cyclic component compiled to a k-ary bag tree:
// the bags were materialized and Yannakakis-reduced at compile time, so
// execution is a pure hash join along the tree followed by head projection
// and dedup.
func (ex *executor) evalBagTree(c *component) (*compResult, error) {
	p := ex.p
	if err := ex.check(); err != nil {
		return nil, err
	}
	compNode := &Node{Op: "component", Detail: varNames(p.vars, c.vars) + " " + c.ghd, Rows: -1}
	bagNodes := make([]*Node, len(c.bags))
	root := -1
	for i, b := range c.bags {
		kept := make([]string, len(b.needed))
		for k, v := range b.needed {
			kept[k] = p.vars[v]
		}
		bagNodes[i] = &Node{
			Op: "bag", Decision: optimizer.Decision{Strategy: b.strategy},
			Detail: fmt.Sprintf("%s → [%s]", b.label, strings.Join(kept, ", ")),
			Rows:   int64(len(b.rows)),
		}
		if b.parent < 0 {
			root = i
		}
	}
	join := &Node{Op: "bagjoin", Detail: c.ghd, Rows: -1, Children: bagNodes}
	compNode.Children = []*Node{join}

	if len(c.heads) == 0 {
		// The compile-time full reduction proved satisfiability: non-empty
		// reduced bags always extend to a full solution.
		compNode.Op = "exists"
		compNode.Rows = 1
		return &compResult{node: compNode}, nil
	}
	cr := &compResult{answer: answer{cols: c.heads}, node: compNode}
	if ex.dry {
		return cr, nil
	}

	ex.nodeEvent("bagjoin", c.ghd)
	t0 := time.Now()
	cols, rows, err := joinBagTree(ex.ctx, c.bags, root)
	if err != nil {
		return nil, err
	}
	join.TimeNs = time.Since(t0).Nanoseconds()
	foldTotal.With("bagjoin", "hash").Inc()
	join.Rows = int64(len(rows))
	headPos := varPositions(cols, c.heads)
	distinct := tuples.NewTable(len(headPos))
	t := make([]int32, len(headPos))
	for _, r := range rows {
		distinct.Insert(pick(t, r, headPos))
	}
	cr.rows = distinct.Rows()
	compNode.Rows = int64(len(cr.rows))
	return cr, nil
}

// lookupLive returns the partner list of v=val through e.
func lookupLive(e *liveEdge, v int, val int32) []int32 {
	if e.a == v {
		return e.rel.ByX().Lookup(val)
	}
	return e.rel.ByY().Lookup(val)
}

// SortTuples orders result tuples lexicographically — the canonical serving
// order the server's pagination and the view store rely on.
func SortTuples(tuples [][]int64) {
	slices.SortFunc(tuples, slices.Compare[[]int64])
}

// dedupRows returns the distinct rows, in first-appearance order.
func dedupRows(rows [][]int32) [][]int32 {
	if len(rows) <= 1 {
		return rows
	}
	seen := tuples.NewTable(len(rows[0]))
	for _, r := range rows {
		seen.Insert(r)
	}
	return seen.Rows()
}

// columnRows returns the n one-column rows whose values are at(0..n-1).
func columnRows(n int, at func(i int) int32) [][]int32 {
	col := tuples.Block[int32](n, 1)
	for i, r := range col {
		r[0] = at(i)
	}
	return col
}
