package query

import (
	"context"
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"

	"repro/internal/acyclic"
	"repro/internal/govern"
	"repro/internal/hypertree"
	"repro/internal/optimizer"
	"repro/internal/relation"
	"repro/internal/tuples"
	"repro/internal/wcoj"
)

// bagOptimizer is the process-wide cost model the compiler uses to plan bag
// materialization folds. Calibration (optimizer.CalibrateConstants) runs
// once per process, so the lazy construction is cheap after the first query.
// It is a second instance beside the engine's own optimizer: CompileContext's
// signature is compiled against by bench/, so threading the engine's
// optimizer into compilation is a later change.
var bagOptimizer = sync.OnceValue(func() *optimizer.Optimizer { return optimizer.New() })

// bagInfo is one materialized GHD bag: the variables it spans, the subset it
// keeps after projection (head variables plus tree interfaces), and its
// distinct rows over that subset, in needed-column order.
type bagInfo struct {
	vars   []int // bag variables, ascending
	needed []int // projection kept, ascending
	parent int   // tree parent bag index, -1 at the root
	label  string
	// strategy records how the bag was materialized: "mm"/"wcoj"/"nonmm"
	// when a planned two-path fold ran, "wcoj" for the generic backtracking
	// materializer.
	strategy string
	rows     [][]int32
}

// decompose admits a cyclic component: it computes a generalized hypertree
// decomposition of the component's join graph, materializes every bag
// (planned MM/WCOJ folds for 3-variable path bags, worst-case-optimal
// backtracking otherwise), and then either rewrites the component into an
// acyclic instance over binary bag relations — re-entering the ordinary
// Yannakakis + planned-fold pipeline — or, when some bag must keep three or
// more variables, stores the reduced bag tree for k-ary evaluation.
func (p *Prepared) decompose(ctx context.Context, c *component, unary map[int][]int32, hasUnary map[int]bool, addUnary func(int, []int32, string)) error {
	if p.empty {
		return nil // nothing will run; skip the materialization work
	}

	// Build the hypergraph over component-local vertex ids.
	local := make(map[int]int, len(c.vars))
	for i, v := range c.vars {
		local[v] = i
	}
	h := hypertree.Hypergraph{NumVertices: len(c.vars)}
	for _, e := range c.edges {
		h.Edges = append(h.Edges, []int{local[e.a], local[e.b]})
	}
	// Among minimum-width decompositions, prefer ones whose bags project to
	// ≤ 2 variables (head ∪ interfaces): those re-enter the binary fold
	// pipeline instead of the k-ary bag join.
	headLocal := make(map[int]bool, len(c.heads))
	for _, v := range c.heads {
		headLocal[local[v]] = true
	}
	d, err := hypertree.DecomposeScored(h, func(d hypertree.Decomposition) int {
		s := 0
		for i := range d.Bags {
			n := localNeeded(d, i, headLocal)
			if len(n) > 2 {
				s += len(n) - 2
			}
		}
		return s
	})
	if err != nil {
		return fmt.Errorf("query: cyclic query over %s: %w", varNames(p.vars, c.vars), err)
	}
	c.ghd = fmt.Sprintf("(ghd width=%d bags=%d)", d.Width, len(d.Bags))

	// Bag variable sets in global ids, and the kept ("needed") subset: head
	// variables plus interfaces with tree-adjacent bags. The running
	// intersection property makes adjacent interfaces sufficient — any two
	// bags sharing a variable share it along the whole tree path.
	nb := len(d.Bags)
	bagVars := make([][]int, nb)
	for i, b := range d.Bags {
		for _, lv := range b.Vertices {
			bagVars[i] = append(bagVars[i], c.vars[lv])
		}
		sort.Ints(bagVars[i])
	}
	needed := make([][]int, nb)
	for i := range d.Bags {
		for _, lv := range localNeeded(d, i, headLocal) {
			needed[i] = append(needed[i], c.vars[lv])
		}
		sort.Ints(needed[i])
	}

	// Materialize every bag, enforcing all in-bag atoms and unary
	// constraints; constraints whose variables straddle bags are enforced in
	// each bag that contains them (redundant filtering is harmless).
	bags := make([]*bagInfo, nb)
	for i := range d.Bags {
		bg, err := p.materializeBag(ctx, c, bagVars[i], needed[i], unary, hasUnary)
		if err != nil {
			return err
		}
		bg.parent = d.Bags[i].Parent
		bags[i] = bg
		p.matRows += len(bg.rows)
		if len(bg.rows) == 0 {
			// One empty bag proves the query empty; don't materialize the
			// rest (execution renders only the "empty" node).
			p.empty = true
			p.emptyWhy = bg.label + " is empty"
			c.bags, c.edges = nil, nil
			return nil
		}
	}

	// Binary rewrite is possible when every bag projects to ≤ 2 variables
	// and the resulting edge graph is a tree (with running intersection this
	// always holds; the check is belt and braces).
	binary := true
	for i := range bags {
		if len(bags[i].needed) > 2 {
			binary = false
			break
		}
	}
	if binary {
		type pairKey struct{ a, b int }
		kept := map[int]bool{}
		pairs := map[pairKey]bool{}
		for _, bg := range bags {
			for _, v := range bg.needed {
				kept[v] = true
			}
			if len(bg.needed) == 2 {
				pairs[pairKey{bg.needed[0], bg.needed[1]}] = true
			}
		}
		if len(pairs) == len(kept)-1 || (len(kept) == 0 && len(pairs) == 0) {
			p.rewriteBinary(c, bags, addUnary)
			return nil
		}
	}

	// k-ary path: keep the bag tree and full-reduce it now, so execution is
	// a pure join and non-emptiness is already decided at compile time.
	c.edges = nil
	c.bags = bags
	keptVars := map[int]bool{}
	for _, bg := range bags {
		for _, v := range bg.needed {
			keptVars[v] = true
		}
	}
	var vars []int
	for _, v := range c.vars {
		if keptVars[v] {
			vars = append(vars, v)
		}
	}
	c.vars = vars
	p.reduceBagTree(c)
	return nil
}

// localNeeded returns bag i's kept vertices in decomposition-local ids,
// sorted: head vertices plus interfaces with tree-adjacent bags.
func localNeeded(d hypertree.Decomposition, i int, heads map[int]bool) []int {
	keep := map[int]bool{}
	for _, lv := range d.Bags[i].Vertices {
		if heads[lv] {
			keep[lv] = true
		}
	}
	for j := range d.Bags {
		if j == i || (d.Bags[j].Parent != i && d.Bags[i].Parent != j) {
			continue
		}
		for _, lv := range d.Bags[i].Vertices {
			if containsInt(d.Bags[j].Vertices, lv) {
				keep[lv] = true
			}
		}
	}
	out := make([]int, 0, len(keep))
	for lv := range keep {
		out = append(out, lv)
	}
	sort.Ints(out)
	return out
}

// rewriteBinary replaces the component's cyclic edge set with the bag
// relations: two-variable bags become binary edges (parallel ones merged by
// intersection), one-variable bags become unary domain constraints, and
// zero-variable bags are existence checks already proven non-empty.
func (p *Prepared) rewriteBinary(c *component, bags []*bagInfo, addUnary func(int, []int32, string)) {
	kept := map[int]bool{}
	var edges []edge
	for _, bg := range bags {
		switch len(bg.needed) {
		case 0:
			// Non-empty (checked by the caller): the bag is satisfied.
		case 1:
			v := bg.needed[0]
			dom := make([]int32, len(bg.rows))
			for i, r := range bg.rows {
				dom[i] = r[0]
			}
			addUnary(v, dom, bg.label)
			kept[v] = true
		case 2:
			a, b := bg.needed[0], bg.needed[1]
			ps := make([]relation.Pair, len(bg.rows))
			for i, r := range bg.rows {
				ps[i] = relation.Pair{X: r[0], Y: r[1]}
			}
			rel := relation.FromPairs("bag"+varNames(p.vars, bg.needed), ps)
			kept[a], kept[b] = true, true

			merged := false
			for i := range edges {
				e := &edges[i]
				if (e.a == a && e.b == b) || (e.a == b && e.b == a) {
					if e.a != a {
						rel = rel.Swap()
					}
					e.rel = intersectRels(e.rel, rel)
					e.label += " ∩ " + bg.label
					if e.rel.Size() == 0 && !p.empty {
						p.empty = true
						p.emptyWhy = e.label + " is empty"
					}
					merged = true
					break
				}
			}
			if !merged {
				edges = append(edges, edge{
					a: a, b: b, rel: rel,
					label: bg.label, bag: true, bagStrategy: bg.strategy,
				})
			}
		}
	}
	for i := range edges {
		edges[i].origSize = edges[i].rel.Size()
	}
	var vars []int
	for _, v := range c.vars {
		if kept[v] {
			vars = append(vars, v)
		}
	}
	c.vars, c.edges = vars, edges
}

// materializeBag computes one bag's distinct rows over its needed variables.
// A three-variable bag projecting to two (a path a–m–b with an optional
// chord) runs as a planned two-path composition — the paper's fold, with the
// calibrated cost model picking MM or WCOJ — and anything else falls back to
// worst-case-optimal backtracking over the bag's atoms.
func (p *Prepared) materializeBag(ctx context.Context, c *component, bagVars, needed []int, unary map[int][]int32, hasUnary map[int]bool) (*bagInfo, error) {
	bg := &bagInfo{vars: bagVars, needed: needed}

	var inBag []*edge
	var labels []string
	for i := range c.edges {
		e := &c.edges[i]
		if containsInt(bagVars, e.a) && containsInt(bagVars, e.b) {
			inBag = append(inBag, e)
			labels = append(labels, e.label)
		}
	}
	bg.label = fmt.Sprintf("bag %s via %s", varNames(p.vars, bagVars), strings.Join(labels, ", "))

	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if rows, strategy, ok := p.foldBag(bagVars, needed, inBag, hasUnary); ok {
		bg.rows, bg.strategy = rows, strategy
		return bg, nil
	}
	rows, err := p.enumerateBag(ctx, c, bagVars, needed, inBag, unary, hasUnary)
	if err != nil {
		return nil, err
	}
	bg.rows = rows
	bg.strategy = acyclic.StrategyWCOJ
	return bg, nil
}

// foldBag attempts the composed fast path: bag {a, m, b} projected to
// {a, b} with atoms (a,m), (m,b) and at most a chord (a,b). Unary
// constraints on any bag variable disable it (the backtracking path applies
// them). Returns ok=false when the shape does not match.
func (p *Prepared) foldBag(bagVars, needed []int, inBag []*edge, hasUnary map[int]bool) ([][]int32, string, bool) {
	if len(bagVars) != 3 || len(needed) != 2 || len(inBag) < 2 || len(inBag) > 3 {
		return nil, "", false
	}
	for _, v := range bagVars {
		if hasUnary[v] {
			return nil, "", false
		}
	}
	a, b := needed[0], needed[1]
	m := -1
	for _, v := range bagVars {
		if v != a && v != b {
			m = v
		}
	}
	var eAM, eMB, chord *edge
	for _, e := range inBag {
		switch {
		case (e.a == a && e.b == m) || (e.a == m && e.b == a):
			eAM = e
		case (e.a == m && e.b == b) || (e.a == b && e.b == m):
			eMB = e
		case (e.a == a && e.b == b) || (e.a == b && e.b == a):
			chord = e
		}
	}
	if eAM == nil || eMB == nil {
		return nil, "", false
	}

	l := eAM.rel
	if eAM.a != a {
		l = l.Swap()
	}
	r := eMB.rel
	if eMB.a != m {
		r = r.Swap()
	}
	v, step := acyclic.Compose(l, r, acyclic.Options{Optimizer: bagOptimizer(), Force: p.Query.Hints.Strategy})

	var ch *relation.Relation
	if chord != nil {
		ch = chord.rel
		if chord.a != a {
			ch = ch.Swap()
		}
	}
	rows := tuples.NewArena[int32](2)
	for _, pr := range v.Pairs() {
		if ch != nil && !ch.Contains(pr.X, pr.Y) {
			continue
		}
		row := rows.Alloc()
		row[0], row[1] = pr.X, pr.Y
	}
	return rows.Rows(), step.Strategy, true
}

// enumerateBag materializes a bag with the shared variable-at-a-time join
// (wcoj.Plan) over its in-bag atoms — the k-ary worst-case-optimal join
// restricted to the bag. Unary constraints ride along as per-variable
// domains. A variable the order reaches with no bound neighbour starts from
// the key lists of its in-bag atoms or, for a needed variable no in-bag atom
// touches, of its out-of-bag atoms (a sound superset; interface joins restore
// exactness). The search polls the context, so a request deadline abandons a
// pathological bag.
func (p *Prepared) enumerateBag(ctx context.Context, c *component, bagVars, needed []int, inBag []*edge, unary map[int][]int32, hasUnary map[int]bool) ([][]int32, error) {
	atoms := make([][2]int, len(inBag))
	rels := make([]*relation.Relation, len(inBag))
	for i, e := range inBag {
		atoms[i], rels[i] = [2]int{e.a, e.b}, e.rel
	}
	plan := wcoj.NewPlan(atoms, nil, bagVars)
	domains := make([][]int32, len(p.vars))
	for _, v := range bagVars {
		if hasUnary[v] {
			domains[v] = unary[v]
		}
	}
	for _, v := range plan.Roots() {
		var lists [][]int32
		if hasUnary[v] {
			lists = append(lists, unary[v])
		}
		for _, e := range inBag {
			if e.a == v || e.b == v {
				lists = append(lists, edgeKeys(e, v))
			}
		}
		if len(lists) == 0 {
			for i := range c.edges {
				if e := &c.edges[i]; e.a == v || e.b == v {
					lists = append(lists, edgeKeys(e, v))
				}
			}
		}
		if domains[v] = wcoj.IntersectK(lists); len(domains[v]) == 0 {
			return nil, nil
		}
	}

	seen := tuples.NewTable(len(needed))
	row := make([]int32, len(needed))
	search := plan.Search(rels, domains, ctx.Err, func(assign []int32) bool {
		seen.Insert(pick(row, assign, needed))
		return len(needed) > 0 // a boolean bag is decided by its first witness
	})
	if err := search.Run(make([]int32, len(p.vars))); err != nil {
		return nil, err
	}
	// Sorted for deterministic plans.
	rows := seen.Rows()
	slices.SortFunc(rows, slices.Compare[[]int32])
	return rows, nil
}

// reduceBagTree runs the Yannakakis full reducer over the k-ary bag tree:
// an upward pass (children filter parents) then a downward pass (parents
// filter children), leaving every bag row extensible to a full solution.
// After it, non-empty bags imply a non-empty component.
func (p *Prepared) reduceBagTree(c *component) {
	bags := c.bags
	order := bagsByDepth(bags)
	// Upward: deepest first; each bag filters its parent.
	for i := len(order) - 1; i >= 0; i-- {
		b := bags[order[i]]
		if b.parent < 0 {
			continue
		}
		semijoinRows(bags[b.parent], b)
	}
	// Downward: shallowest first; each parent filters its children.
	for _, bi := range order {
		b := bags[bi]
		if b.parent < 0 {
			continue
		}
		semijoinRows(b, bags[b.parent])
	}
	for _, b := range bags {
		if len(b.rows) == 0 && !p.empty {
			p.empty = true
			p.emptyWhy = b.label + " is empty after reduction"
			return
		}
	}
}

// bagsByDepth returns bag indices ordered root-first by tree depth.
func bagsByDepth(bags []*bagInfo) []int {
	depth := make([]int, len(bags))
	var depthOf func(i int) int
	depthOf = func(i int) int {
		if bags[i].parent < 0 {
			return 0
		}
		if depth[i] == 0 {
			depth[i] = depthOf(bags[i].parent) + 1
		}
		return depth[i]
	}
	order := make([]int, len(bags))
	for i := range bags {
		order[i] = i
		depthOf(i)
	}
	sort.SliceStable(order, func(a, b int) bool { return depth[order[a]] < depth[order[b]] })
	return order
}

// semijoinRows keeps the rows of dst whose shared-variable projection
// appears in src. Survivors are copied to a store of their own: bag rows are
// views into one arena, and a cached plan must not pin the unreduced bag
// through them.
func semijoinRows(dst, src *bagInfo) {
	shared := intersectInts(dst.needed, src.needed)
	if len(shared) == 0 {
		return
	}
	dstPos := varPositions(dst.needed, shared)
	srcPos := varPositions(src.needed, shared)
	keys := tuples.NewTable(len(shared))
	key := make([]int32, len(shared))
	for _, r := range src.rows {
		keys.Insert(pick(key, r, srcPos))
	}
	out := tuples.NewArena[int32](len(dst.needed))
	for _, r := range dst.rows {
		if keys.Find(pick(key, r, dstPos)) >= 0 {
			copy(out.Alloc(), r)
		}
	}
	dst.rows = out.Rows()
}

// joinBagTree joins the reduced bag tree below bag i and returns the result
// columns (variable ids) and rows. The context is polled between child
// joins and every few thousand output rows, so a request deadline abandons
// a blowing-up intermediate; the per-query budget riding the context is
// charged at the same poll, while the joined intermediate grows, so an output
// explosion trips govern.ErrBudgetExceeded before it exhausts memory.
func joinBagTree(ctx context.Context, bags []*bagInfo, i int) ([]int, [][]int32, error) {
	budget := govern.FromContext(ctx)
	cols := slices.Clone(bags[i].needed)
	rows := bags[i].rows
	for j, b := range bags {
		if b.parent != i {
			continue
		}
		if err := ctx.Err(); err != nil {
			return nil, nil, err
		}
		ccols, crows, err := joinBagTree(ctx, bags, j)
		if err != nil {
			return nil, nil, err
		}
		// cols is no longer sorted after the first child join: intersect by
		// linear membership, not the sorted-slice helpers.
		var shared []int
		for _, v := range ccols {
			if slices.Contains(cols, v) {
				shared = append(shared, v)
			}
		}
		sharedPos := varPositions(cols, shared)
		csharedPos := varPositions(ccols, shared)
		var extraPos []int
		for k, v := range ccols {
			if !slices.Contains(shared, v) {
				extraPos = append(extraPos, k)
				cols = append(cols, v)
			}
		}
		// Hash index on the child's shared columns: a Table of the distinct
		// keys, and per key ordinal the child rows carrying it.
		index := tuples.NewTable(len(shared))
		var buckets [][][]int32
		key := make([]int32, len(shared))
		for _, r := range crows {
			m, fresh := index.Insert(pick(key, r, csharedPos))
			if fresh {
				buckets = append(buckets, nil)
			}
			buckets[m] = append(buckets[m], r)
		}
		joined := tuples.NewArena[int32](len(cols))
		rowBytes := int64(rowBudgetBytes(len(cols)))
		for _, r := range rows {
			m := index.Find(pick(key, r, sharedPos))
			if m < 0 {
				continue
			}
			for _, cr := range buckets[m] {
				row := joined.Alloc()
				copy(row, r)
				for e, ep := range extraPos {
					row[len(r)+e] = cr[ep]
				}
				if joined.Len()%joinPollRows == 0 {
					if err := ctx.Err(); err != nil {
						return nil, nil, err
					}
					if err := budget.ChargeRows(joinPollRows, rowBytes); err != nil {
						return nil, nil, err
					}
				}
			}
		}
		if err := budget.ChargeRows(int64(joined.Len()%joinPollRows), rowBytes); err != nil {
			return nil, nil, err
		}
		rows = joined.Rows()
	}
	return cols, rows, nil
}

// joinPollRows is how many joined rows joinBagTree builds between polls of
// the context and charges to the budget.
const joinPollRows = 8192

// pick writes the projection of r onto positions into dst and returns dst —
// the key a tuples.Table is probed with.
func pick(dst, r []int32, positions []int) []int32 {
	for i, p := range positions {
		dst[i] = r[p]
	}
	return dst
}

// varPositions maps each variable of sub to its position in cols.
func varPositions(cols, sub []int) []int {
	out := make([]int, len(sub))
	for i, v := range sub {
		out[i] = slices.Index(cols, v)
	}
	return out
}

// intersectInts returns the sorted intersection of two ascending int slices.
func intersectInts(a, b []int) []int {
	var out []int
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			out = append(out, a[i])
			i++
			j++
		}
	}
	return out
}

// containsInt reports membership in an ascending int slice.
func containsInt(s []int, v int) bool {
	i := sort.SearchInts(s, v)
	return i < len(s) && s[i] == v
}
