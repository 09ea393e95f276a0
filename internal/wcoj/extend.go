package wcoj

import (
	"fmt"
	"slices"

	"repro/internal/relation"
)

// Plan is a fixed variable order for extending a partial assignment through
// binary atoms one variable at a time: at each step the next variable's
// candidates are the intersection of the partner lists of every atom that
// joins it to an already-bound variable. It depends only on the join graph,
// so one Plan serves every Search over relations of that shape — a query
// compiles one per hypertree bag, a view one per delta slot.
type Plan struct {
	steps  []step
	probes []probe // all steps' probes, each step owning a contiguous run
}

// step binds variable v from the probes in [lo, hi).
type step struct {
	v, lo, hi int
}

// probe reads v's candidates through one atom: the partner list of the bound
// variable from, which sits on the atom's X column iff fromX.
type probe struct {
	atom, from int
	fromX      bool
}

// NewPlan orders the free variables for extension from the seeds (variables
// the caller binds before each run). atoms[i] = {a, b} says relation i's X
// column carries variable a and its Y column b, a ≠ b. The order is
// connectivity-greedy: always the variable joined to the bound prefix by the
// most atoms, the lowest index on ties.
func NewPlan(atoms [][2]int, seeds, free []int) *Plan {
	p := &Plan{}
	bound := map[int]bool{}
	for _, v := range seeds {
		bound[v] = true
	}
	joins := func(v int) (n int) {
		for _, a := range atoms {
			if (a[0] == v && bound[a[1]]) || (a[1] == v && bound[a[0]]) {
				n++
			}
		}
		return n
	}
	free = slices.Clone(free)
	for len(free) > 0 {
		best, bestScore := 0, -1
		for i, v := range free {
			if s := joins(v); s > bestScore || (s == bestScore && v < free[best]) {
				best, bestScore = i, s
			}
		}
		v := free[best]
		free = slices.Delete(free, best, best+1)
		st := step{v: v, lo: len(p.probes)}
		for i, a := range atoms {
			switch {
			case a[1] == v && bound[a[0]]:
				p.probes = append(p.probes, probe{atom: i, from: a[0], fromX: true})
			case a[0] == v && bound[a[1]]:
				p.probes = append(p.probes, probe{atom: i, from: a[1]})
			}
		}
		st.hi = len(p.probes)
		p.steps = append(p.steps, st)
		bound[v] = true
	}
	return p
}

// Roots returns the variables the order reaches with no atom joining them to
// the bound prefix — the first variable of every connected piece the seeds do
// not touch. A Search needs a domain for each.
func (p *Plan) Roots() []int {
	var roots []int
	for _, st := range p.steps {
		if st.lo == st.hi {
			roots = append(roots, st.v)
		}
	}
	return roots
}

// pollEvery is how many search nodes pass between two polls.
const pollEvery = 1 << 12

// Search is one Plan bound to concrete relations; Run it once per seed
// assignment. A Search is single-goroutine state.
type Search struct {
	plan    *Plan
	rels    []*relation.Relation
	domains [][]int32
	poll    func() error
	visit   func(assign []int32) bool
	assign  []int32
	lists   [][]int32 // leapfrog cursors, one run per step alongside probes
	nodes   int
	err     error
}

// Search binds the plan to relations: rels[i] is atom i's relation (an atom
// between two seeds is never read and may be nil). domains, indexed by
// variable, intersects an extra sorted list into that variable's candidates;
// a nil or missing entry constrains nothing. Every variable of Roots must
// have one; callers holding an empty domain have an empty result and do not
// search. poll, when non-nil, runs
// every few thousand search nodes and its error abandons the search. visit
// receives every full assignment (the seeds' slice, valid for the call) and
// returns false to stop early.
func (p *Plan) Search(rels []*relation.Relation, domains [][]int32, poll func() error, visit func(assign []int32) bool) *Search {
	return &Search{plan: p, rels: rels, domains: domains, poll: poll, visit: visit,
		lists: make([][]int32, len(p.probes)+len(p.steps))}
}

// Run extends assign — indexed by variable, seeds already set — through
// every step of the plan, calling visit per full assignment. It returns
// poll's error if one stopped the search, in which case the visits made so
// far are a truncated result the caller must discard.
func (s *Search) Run(assign []int32) error {
	s.assign = assign
	s.extend(0)
	return s.err
}

// extend binds the variable of step k to each candidate in turn. It returns
// false once the search must stop (visit said so, or poll failed).
func (s *Search) extend(k int) bool {
	if s.nodes++; s.nodes%pollEvery == 0 && s.poll != nil {
		if s.err = s.poll(); s.err != nil {
			return false
		}
	}
	if k == len(s.plan.steps) {
		return s.visit(s.assign)
	}
	st := s.plan.steps[k]
	lists := s.lists[st.lo+k : st.lo+k : st.hi+k+1]
	for _, pr := range s.plan.probes[st.lo:st.hi] {
		ix := s.rels[pr.atom].ByY()
		if pr.fromX {
			ix = s.rels[pr.atom].ByX()
		}
		l := ix.Lookup(s.assign[pr.from])
		if len(l) == 0 {
			return true
		}
		lists = append(lists, l)
	}
	if st.v < len(s.domains) && s.domains[st.v] != nil {
		lists = append(lists, s.domains[st.v])
	}
	switch len(lists) {
	case 0:
		panic(fmt.Sprintf("wcoj: variable %d has neither a bound neighbour nor a domain", st.v))
	case 1:
		// The common case (every step of a tree): walk the one partner list
		// in place.
		for _, val := range lists[0] {
			s.assign[st.v] = val
			if !s.extend(k + 1) {
				return false
			}
		}
		return true
	}
	return leapfrog(lists, func(val int32) bool {
		s.assign[st.v] = val
		return s.extend(k + 1)
	})
}
