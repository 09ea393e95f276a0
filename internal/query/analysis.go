package query

import (
	"fmt"
	"slices"

	"repro/internal/tuples"
)

// AtomClass says how one body atom constrains its variables.
type AtomClass uint8

// Atom classes.
const (
	// AtomBinary joins two distinct variables: an edge of the join graph.
	AtomBinary AtomClass = iota
	// AtomConst has one constant argument: a selection on its variable.
	AtomConst
	// AtomSelfLoop is R(x, x): x ranges over the relation's diagonal.
	AtomSelfLoop
	// AtomGround has two constant arguments: a membership test.
	AtomGround
)

// AtomInfo is the structural reading of one body atom.
type AtomInfo struct {
	Class AtomClass
	// A and B are the variable indices of the X and Y arguments, -1 for a
	// constant.
	A, B int
	// Edge indexes Analysis.Edges for an AtomBinary, -1 otherwise.
	Edge int
}

// Other returns the atom's endpoint that is not v.
func (a AtomInfo) Other(v int) int {
	if a.A == v {
		return a.B
	}
	return a.A
}

// Component is one connected component of the join graph.
type Component struct {
	// Vars are the component's variables, ascending (first-appearance order).
	Vars []int
	// Edges index Analysis.Edges, ascending.
	Edges []int
	// Heads are the head variables living here, in head order.
	Heads []int
	// Tree reports an acyclic component: its distinct variable pairs form a
	// tree over Vars (parallel atoms over one pair count once).
	Tree bool
}

// HeadLayout says how head tuples are formed from rows over the distinct
// head variables.
type HeadLayout struct {
	// Vars are the distinct head variables in first-appearance order — the
	// key order of the view layer's counted store.
	Vars []int
	// Pos gives, per head term, its variable's position in Vars.
	Pos []int
	// CountIdx is the head position of the COUNT term, or -1.
	CountIdx int
}

// Analysis is the structural reading of one rule, independent of any
// relation contents: the single place variables are numbered, atoms
// classified, components and tree-ness found and the head laid out. The
// compiler and the view layer's maintenance planner both build on it. An
// Analysis is immutable once returned.
type Analysis struct {
	// Vars names the variables by index, in first-appearance order over the
	// body.
	Vars []string
	// Atoms runs parallel to Query.Atoms.
	Atoms []AtomInfo
	// Edges are the distinct variable pairs joined by binary atoms, each
	// oriented as first seen, in first-appearance order.
	Edges [][2]int
	// Comps are the connected components, ordered by their first variable.
	Comps []Component
	// Head is the head layout.
	Head HeadLayout
	// Rels are the distinct relation names, in first-appearance order.
	Rels []string
}

// Analyze computes the structural analysis of q. It fails only for a head
// variable the body does not bind (Parse rejects that already; hand-built
// ASTs reach it here).
func Analyze(q *Query) (*Analysis, error) {
	an := &Analysis{Atoms: make([]AtomInfo, len(q.Atoms)), Rels: q.Relations()}
	varIdx := map[string]int{}
	varOf := func(t Term) int {
		if t.IsConst {
			return -1
		}
		i, ok := varIdx[t.Var]
		if !ok {
			i = len(an.Vars)
			varIdx[t.Var] = i
			an.Vars = append(an.Vars, t.Var)
		}
		return i
	}
	for i, a := range q.Atoms {
		at := AtomInfo{A: varOf(a.Args[0]), B: varOf(a.Args[1]), Edge: -1}
		switch {
		case at.A < 0 && at.B < 0:
			at.Class = AtomGround
		case at.A < 0 || at.B < 0:
			at.Class = AtomConst
		case at.A == at.B:
			at.Class = AtomSelfLoop
		default:
			at.Edge = slices.IndexFunc(an.Edges, func(e [2]int) bool {
				return e == [2]int{at.A, at.B} || e == [2]int{at.B, at.A}
			})
			if at.Edge < 0 {
				at.Edge = len(an.Edges)
				an.Edges = append(an.Edges, [2]int{at.A, at.B})
			}
		}
		an.Atoms[i] = at
	}

	// Components: label every variable with the lowest variable it is
	// connected to, then number the labels in order.
	label := make([]int, len(an.Vars))
	for v := range label {
		label[v] = v
	}
	for _, e := range an.Edges {
		lo, hi := min(label[e[0]], label[e[1]]), max(label[e[0]], label[e[1]])
		for v, l := range label {
			if l == hi {
				label[v] = lo
			}
		}
	}
	varComp := make([]int, len(an.Vars))
	for v, l := range label {
		if l == v {
			varComp[v] = len(an.Comps)
			an.Comps = append(an.Comps, Component{})
		} else {
			varComp[v] = varComp[l]
		}
		an.Comps[varComp[v]].Vars = append(an.Comps[varComp[v]].Vars, v)
	}
	for ei, e := range an.Edges {
		c := &an.Comps[varComp[e[0]]]
		c.Edges = append(c.Edges, ei)
	}
	for i := range an.Comps {
		c := &an.Comps[i]
		c.Tree = len(c.Edges) == len(c.Vars)-1
	}

	// Head layout.
	an.Head.CountIdx = q.CountIndex()
	an.Head.Pos = make([]int, len(q.Head))
	for i, h := range q.Head {
		v, ok := varIdx[h.Var]
		if !ok {
			return nil, fmt.Errorf("query: head variable %q is not bound by the body", h.Var)
		}
		pos := slices.Index(an.Head.Vars, v)
		if pos < 0 {
			pos = len(an.Head.Vars)
			an.Head.Vars = append(an.Head.Vars, v)
			c := &an.Comps[varComp[v]]
			c.Heads = append(c.Heads, v)
		}
		an.Head.Pos[i] = pos
	}
	return an, nil
}

// Project forms the head tuples from rows that are distinct over the head
// variables; cols names the variable each row column carries (any order).
// Without COUNT that is one tuple per row, in row order. COUNT(v) counts the
// rows of each group of the remaining head terms — the rows being distinct,
// that is the distinct-v count — and emits groups in first-appearance order;
// a bare COUNT yields the single global-count row, zero included.
func (h *HeadLayout) Project(cols []int, rows [][]int32) [][]int64 {
	return h.block(&answer{cols: cols, rows: rows})
}

// grouping reports whether forming a's head tuples means grouping its rows
// first: a COUNT beside other head terms, not pushed into the final fold.
// Only then is the head-row count unknown until every row has been read.
func (h *HeadLayout) grouping(a *answer) bool {
	return h.CountIdx >= 0 && len(h.Pos) > 1 && a.counts == nil
}

// rowCount returns the number of head tuples a yields, for an a that needs
// no grouping.
func (h *HeadLayout) rowCount(a *answer) int {
	if h.CountIdx >= 0 && a.counts == nil {
		return 1
	}
	return a.len()
}

// block forms a's head tuples as one Block (a grouping head keeps its
// groups' arena).
func (h *HeadLayout) block(a *answer) [][]int64 {
	if h.grouping(a) {
		return h.groupCount(a)
	}
	out, i := tuples.Block[int64](h.rowCount(a), len(h.Pos)), 0
	h.project(a, func(t []int64) {
		copy(out[i], t)
		i++
	})
	return out
}

// project is the one loop from an answer that needs no grouping to head
// tuples, for both of their destinations: block's Tuples, and a caller of
// Result.EachRow that formats them as they come. Tuple after tuple goes to
// emit in one reused slice.
func (h *HeadLayout) project(a *answer, emit func(t []int64)) {
	t := make([]int64, len(h.Pos))
	switch ci := h.CountIdx; {
	case a.counts != nil:
		// A pushed-down COUNT: one group value and its count per row.
		i := 0
		a.each(func(r []int32) {
			t[1-ci], t[ci] = int64(r[0]), a.counts[i]
			emit(t)
			i++
		})
	case ci < 0:
		pos := h.columns(a.cols)
		a.each(func(r []int32) {
			for j, p := range pos {
				t[j] = int64(r[p])
			}
			emit(t)
		})
	default: // a bare COUNT
		t[0] = int64(a.len())
		emit(t)
	}
}

// columns returns, per head term, the column of cols that carries its
// variable.
func (h *HeadLayout) columns(cols []int) []int {
	pos := make([]int, len(h.Pos))
	for i, hp := range h.Pos {
		pos[i] = slices.Index(cols, h.Vars[hp])
	}
	return pos
}

// groupCount forms the head tuples of a COUNT beside other head terms: the
// rows of each group of the other terms are counted, groups in
// first-appearance order.
func (h *HeadLayout) groupCount(a *answer) [][]int64 {
	pos := h.columns(a.cols)
	// A group's ordinal in the table is its tuple's ordinal in out.
	groupPos := slices.Delete(slices.Clone(pos), h.CountIdx, h.CountIdx+1)
	groups := tuples.NewTable(len(groupPos))
	out := tuples.NewArena[int64](len(pos))
	key := make([]int32, len(groupPos))
	a.each(func(r []int32) {
		gi, fresh := groups.Insert(pick(key, r, groupPos))
		if fresh {
			t := out.Alloc()
			for j, p := range pos {
				if j != h.CountIdx {
					t[j] = int64(r[p])
				}
			}
		}
		out.At(gi)[h.CountIdx]++
	})
	return out.Rows()
}
