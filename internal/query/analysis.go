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
	pos := make([]int, len(h.Pos)) // per head term: its column in rows
	for i, hp := range h.Pos {
		pos[i] = slices.Index(cols, h.Vars[hp])
	}
	if h.CountIdx < 0 {
		out := tuples.Block[int64](len(rows), len(pos))
		for i, r := range rows {
			for j, p := range pos {
				out[i][j] = int64(r[p])
			}
		}
		return out
	}
	if len(pos) == 1 {
		return [][]int64{{int64(len(rows))}}
	}
	// A group's ordinal in the table is its tuple's ordinal in out.
	groupPos := slices.Delete(slices.Clone(pos), h.CountIdx, h.CountIdx+1)
	groups := tuples.NewTable(len(groupPos))
	out := tuples.NewArena[int64](len(pos))
	key := make([]int32, len(groupPos))
	for _, r := range rows {
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
	}
	return out.Rows()
}
