package query

import (
	"context"
	"fmt"
	"slices"
	"sort"
	"strings"

	"repro/internal/relation"
)

// Resolver maps a relation name to its indexed relation. The catalog's Get
// wraps into one; tests pass map lookups.
type Resolver func(name string) (*relation.Relation, error)

// MapResolver builds a Resolver over a fixed name → relation map.
func MapResolver(rels map[string]*relation.Relation) Resolver {
	return func(name string) (*relation.Relation, error) {
		r, ok := rels[name]
		if !ok {
			return nil, fmt.Errorf("query: unknown relation %q", name)
		}
		return r, nil
	}
}

// edge is one join-graph edge: a binary relation between two variables,
// oriented so the relation's X column carries variable a and the Y column
// variable b. Parallel atoms over the same variable pair are merged into one
// edge by tuple intersection during compilation.
type edge struct {
	a, b  int // variable indices
	rel   *relation.Relation
	label string // source atoms, for EXPLAIN
	// origSize is the tuple count before semijoin reduction.
	origSize int
	// bag marks an edge holding a materialized GHD bag relation rather than
	// a source atom; bagStrategy records how it was materialized ("mm",
	// "wcoj" or "nonmm"), for EXPLAIN.
	bag         bool
	bagStrategy string
}

// component is one connected component of the join graph: a tree of edges
// (acyclicity is checked at compile time) plus the globally consistent
// variable domains the Yannakakis reduction produced.
type component struct {
	vars    []int // variable indices, in first-appearance order
	edges   []edge
	heads   []int           // head variables in this component
	allowed map[int][]int32 // per variable: sorted globally consistent domain
	pruned  []string        // labels of edges outside the Steiner tree (filters only)
	// ghd summarizes the hypertree decomposition a cyclic component went
	// through, for EXPLAIN; empty for components that were trees already.
	ghd string
	// bags, when non-nil, holds the reduced k-ary bag tree of a cyclic
	// component whose bags keep ≥ 3 variables each; the executor joins it
	// directly instead of the binary-edge machinery.
	bags []*bagInfo
}

// Prepared is a compiled query: parsed, resolved against one catalog
// snapshot, and semijoin-reduced. Acyclic join graphs compile directly;
// cyclic ones are admitted through a generalized hypertree decomposition
// whose bags are materialized at compile time (see decompose). A Prepared is
// immutable and safe for concurrent Execute calls; the catalog caches them
// per (query text, catalog epoch).
type Prepared struct {
	// Query is the parsed AST.
	Query *Query
	// Text is the canonical query text (the plan-cache key).
	Text string
	// Fingerprint is the statement fingerprint: constants normalized, atoms
	// canonically ordered. Statements differing only in constant values share
	// one fingerprint; statement statistics aggregate on it.
	Fingerprint string

	vars     []string    // variable names by index
	head     *HeadLayout // how head tuples form from distinct head-variable rows
	comps    []*component
	empty    bool   // proven empty during reduction
	emptyWhy string // what emptied it, for EXPLAIN
	matRows  int    // total bag rows materialized for cyclic components
}

// CompileContext parses nothing: it takes a parsed query and resolves,
// validates and reduces it against the relations the resolver provides. Use
// Prepare to go straight from text. Compiling a cyclic query materializes
// hypertree-decomposition bags, which can dominate the whole evaluation, so
// ctx is polled during that work and a deadline abandons compilation
// mid-bag.
func CompileContext(ctx context.Context, q *Query, resolve Resolver) (*Prepared, error) {
	an, err := Analyze(q)
	if err != nil {
		return nil, err
	}
	p := &Prepared{Query: q, Text: q.String(), Fingerprint: q.Fingerprint(), head: &an.Head, vars: an.Vars}

	// Resolve each distinct relation name once.
	rels := make(map[string]*relation.Relation, len(an.Rels))
	for _, name := range an.Rels {
		r, err := resolve(name)
		if err != nil {
			return nil, err
		}
		rels[name] = r
	}

	// Binary atoms become join-graph edges, grouped by variable pair; every
	// other class is a unary domain constraint.
	parallel := make([][]edge, len(an.Edges))
	unary := map[int][]int32{}
	hasUnary := map[int]bool{}
	addUnary := func(v int, set []int32, why string) {
		if hasUnary[v] {
			unary[v] = relation.IntersectSorted(nil, unary[v], set)
		} else {
			hasUnary[v] = true
			unary[v] = set
		}
		if len(unary[v]) == 0 && !p.empty {
			p.empty = true
			p.emptyWhy = why
		}
	}
	for i, a := range q.Atoms {
		r, at := rels[a.Rel], an.Atoms[i]
		switch at.Class {
		case AtomGround:
			if !r.Contains(a.Args[0].Value, a.Args[1].Value) && !p.empty {
				p.empty = true
				p.emptyWhy = fmt.Sprintf("%s has no tuple (%d, %d)", a.Rel, a.Args[0].Value, a.Args[1].Value)
			}
		case AtomConst:
			if at.A < 0 {
				addUnary(at.B, slices.Clone(r.ByX().Lookup(a.Args[0].Value)), a.String())
			} else {
				addUnary(at.A, slices.Clone(r.ByY().Lookup(a.Args[1].Value)), a.String())
			}
		case AtomSelfLoop:
			var diag []int32
			for _, x := range r.ByX().Keys() {
				if r.Contains(x, x) {
					diag = append(diag, x)
				}
			}
			addUnary(at.A, diag, a.String())
		default:
			pair := an.Edges[at.Edge]
			if at.A != pair[0] {
				r = r.Swap()
			}
			parallel[at.Edge] = append(parallel[at.Edge], edge{a: pair[0], b: pair[1], rel: r, label: a.String()})
		}
	}

	// Merge parallel atoms over the same variable pair by tuple intersection
	// (the GYO step that removes hyperedges contained in another).
	edges := make([]edge, len(parallel))
	for ei, group := range parallel {
		e := group[0]
		if len(group) > 1 {
			rels := make([]*relation.Relation, len(group))
			labels := make([]string, len(group))
			for i, g := range group {
				rels[i], labels[i] = g.rel, g.label
			}
			e = edge{a: e.a, b: e.b, rel: intersectRels(rels...), label: strings.Join(labels, " ∩ ")}
		}
		e.origSize = e.rel.Size()
		if e.origSize == 0 && !p.empty {
			p.empty = true
			p.emptyWhy = e.label + " is empty"
		}
		edges[ei] = e
	}

	p.comps = make([]*component, len(an.Comps))
	for i, ac := range an.Comps {
		c := &component{vars: ac.Vars, heads: ac.Heads, allowed: map[int][]int32{}}
		for _, ei := range ac.Edges {
			c.edges = append(c.edges, edges[ei])
		}
		p.comps[i] = c
	}

	// Acyclicity: components that are trees (GYO-reducible) pass straight
	// through; cyclic ones are admitted via generalized hypertree
	// decomposition — their edges are replaced by materialized bag
	// relations, turning them into acyclic instances (or a reduced k-ary
	// bag tree when bags must keep ≥ 3 variables).
	for i, c := range p.comps {
		if an.Comps[i].Tree {
			continue
		}
		if err := p.decompose(ctx, c, unary, hasUnary, addUnary); err != nil {
			return nil, err
		}
	}

	// Yannakakis semijoin reduction per component (bag-tree components were
	// fully reduced during decomposition).
	if !p.empty {
		for _, c := range p.comps {
			if c.bags != nil {
				continue
			}
			if why, ok := p.reduce(c, unary, hasUnary); !ok {
				p.empty = true
				p.emptyWhy = why
				break
			}
		}
	}
	return p, nil
}

// Prepare parses and compiles query text in one step.
func Prepare(src string, resolve Resolver) (*Prepared, error) {
	return PrepareContext(context.Background(), src, resolve)
}

// PrepareContext is Prepare with cancellation (see CompileContext).
func PrepareContext(ctx context.Context, src string, resolve Resolver) (*Prepared, error) {
	q, err := Parse(src)
	if err != nil {
		return nil, err
	}
	return CompileContext(ctx, q, resolve)
}

// MaterializedRows returns the total number of bag rows materialized at
// compile time for cyclic components — zero for acyclic queries. The
// catalog uses it to keep giant compiled artifacts out of the plan cache.
func (p *Prepared) MaterializedRows() int { return p.matRows }

// reduce is the Yannakakis full reducer over one component tree: afterwards
// every remaining domain value and tuple participates in at least one full
// solution of the component, which lets the executor prune non-head branches
// and keep every fold output-sensitive. It roots the tree at its most
// selective bound variable (the smallest unary domain) and seeds only the
// root, so its cost follows the tuples reached from the constants, not the
// relation sizes. Returns ok=false with a reason if some domain empties.
func (p *Prepared) reduce(c *component, unary map[int][]int32, hasUnary map[int]bool) (string, bool) {
	if len(c.vars) == 0 {
		return "", true // a cyclic component decided by its bags alone
	}
	adj := map[int][]int{} // var → incident edge indices
	for i, e := range c.edges {
		adj[e.a] = append(adj[e.a], i)
		adj[e.b] = append(adj[e.b], i)
	}
	root := c.vars[0]
	for _, v := range c.vars {
		if hasUnary[v] && (!hasUnary[root] || len(unary[v]) < len(unary[root])) {
			root = v
		}
	}
	if hasUnary[root] {
		c.allowed[root] = unary[root]
	} else { // an unconstrained variable lies on some edge
		c.allowed[root] = slices.Clone(edgeKeys(&c.edges[adj[root][0]], root))
	}
	// The tree's edges in pre-order from the root, each as parent v, child u.
	type step struct {
		v, u int
		e    *edge
	}
	var order []step
	var walk func(v, parentEdge int)
	walk = func(v, parentEdge int) {
		for _, ei := range adj[v] {
			if e := &c.edges[ei]; ei != parentEdge {
				order = append(order, step{v, e.other(v), e})
				walk(e.other(v), ei)
			}
		}
	}
	walk(root, -1)
	for _, s := range order { // expand: each child starts from its parent's partners
		c.allowed[s.u] = reachable(c.allowed[s.v], s.e, s.v)
		if hasUnary[s.u] {
			c.allowed[s.u] = relation.IntersectSorted(nil, c.allowed[s.u], unary[s.u])
		}
	}
	for i := len(order) - 1; i >= 0; i-- { // upward: children's subtrees filter parents
		s := order[i]
		c.allowed[s.v] = filterSupported(c.allowed[s.v], s.e, s.v, c.allowed[s.u])
	}
	for _, s := range order { // downward: push the root-side support back out
		c.allowed[s.u] = filterSupported(c.allowed[s.u], s.e, s.u, c.allowed[s.v])
	}
	for _, v := range c.vars {
		if len(c.allowed[v]) == 0 {
			return fmt.Sprintf("variable %s has an empty domain after reduction", p.vars[v]), false
		}
	}

	// Rebuild each edge from its allowed X values' partners allowed in Y.
	for i := range c.edges {
		e := &c.edges[i]
		var ps []relation.Pair
		var ys []int32
		for _, x := range c.allowed[e.a] {
			ys = relation.IntersectSorted(ys[:0], e.rel.ByX().Lookup(x), c.allowed[e.b])
			for _, y := range ys {
				ps = append(ps, relation.Pair{X: x, Y: y})
			}
		}
		if len(ps) < e.rel.Size() { // else nothing dangled; keep the original indexes
			e.rel = relation.FromPairs(e.rel.Name(), ps)
		}
	}
	return "", true
}

// reachable returns the sorted distinct partners of dom's values through edge
// e, seen from variable v. Once the partners found reach the edge's key count
// on the other side, that key list is returned instead: it is no larger, and
// the reduction passes filter it just the same.
func reachable(dom []int32, e *edge, v int) []int32 {
	keys := edgeKeys(e, e.other(v))
	var out []int32
	for _, val := range dom {
		out = append(out, edgePartners(e, v, val)...)
		if len(out) >= len(keys) {
			return slices.Clone(keys)
		}
	}
	slices.Sort(out)
	return slices.Compact(out)
}

// intersectRels returns the tuples common to every relation, named after all
// of them ("R∩S"). It walks the smallest relation's index and probes the
// others, so its cost follows the smallest input.
func intersectRels(rels ...*relation.Relation) *relation.Relation {
	small := slices.MinFunc(rels, func(a, b *relation.Relation) int { return a.Size() - b.Size() })
	names := make([]string, len(rels))
	for i, r := range rels {
		names[i] = r.Name()
	}
	var ps []relation.Pair
	ix := small.ByX()
	for i := range ix.NumKeys() {
		x := ix.Key(i)
	next:
		for _, y := range ix.List(i) {
			for _, r := range rels {
				if r != small && !r.Contains(x, y) {
					continue next
				}
			}
			ps = append(ps, relation.Pair{X: x, Y: y})
		}
	}
	return relation.FromPairs(strings.Join(names, "∩"), ps)
}

// other returns the edge endpoint that is not v.
func (e *edge) other(v int) int {
	if e.a == v {
		return e.b
	}
	return e.a
}

// edgeKeys returns the sorted distinct values of variable v in edge e.
func edgeKeys(e *edge, v int) []int32 {
	if e.a == v {
		return e.rel.ByX().Keys()
	}
	return e.rel.ByY().Keys()
}

// edgePartners returns the sorted partner values of v=val through edge e.
func edgePartners(e *edge, v int, val int32) []int32 {
	if e.a == v {
		return e.rel.ByX().Lookup(val)
	}
	return e.rel.ByY().Lookup(val)
}

// filterSupported keeps the values of dom whose partner list through e
// intersects otherDom.
func filterSupported(dom []int32, e *edge, v int, otherDom []int32) []int32 {
	out := dom[:0:0]
	for _, val := range dom {
		if intersectsSorted(edgePartners(e, v, val), otherDom) {
			out = append(out, val)
		}
	}
	return out
}

// intersectsSorted reports whether two ascending slices share an element.
func intersectsSorted(a, b []int32) bool {
	if len(a) == 0 || len(b) == 0 {
		return false
	}
	if len(a) > len(b) {
		a, b = b, a
	}
	if len(b) >= 16*len(a) {
		for _, v := range a {
			i := sort.Search(len(b), func(i int) bool { return b[i] >= v })
			if i < len(b) && b[i] == v {
				return true
			}
			b = b[i:]
			if len(b) == 0 {
				return false
			}
		}
		return false
	}
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			return true
		}
	}
	return false
}

func varNames(names []string, idx []int) string {
	out := "{"
	for i, v := range idx {
		if i > 0 {
			out += " "
		}
		out += names[v]
	}
	return out + "}"
}
