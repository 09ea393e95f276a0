// Package query is the text front-end of the engine: a compact Datalog-style
// language for join-project queries over the binary relations of the
// catalog, a parser to a small AST, and a generic planner/executor.
// Acyclic queries are GYO-decomposed into a tree of the paper's two-path,
// star and path-fold primitives (the direction "Output-sensitive Conjunctive
// Query Evaluation" generalizes the SIGMOD 2020 algorithms in); cyclic
// queries are admitted via generalized hypertree decomposition
// (internal/hypertree) and evaluated with the same fold machinery over
// materialized bag relations.
//
// A query is a single rule:
//
//	Q(x, z) :- R(x, y), S(y, z), T(z, w)
//	Q(x, COUNT(z)) :- R(x, y), S(y, z) WITH strategy=mm, workers=4
//
// The head lists the projected variables (optionally one COUNT(v) aggregate,
// which counts distinct v values per group of the remaining head variables);
// the body is a conjunction of binary atoms whose arguments are variables or
// integer constants; the optional WITH clause carries strategy hints. See
// README.md in this package for the full grammar and semantics.
package query

import (
	"fmt"
	"slices"
	"strings"
)

// Term is one atom argument: a variable or an integer constant.
type Term struct {
	Var     string // variable name when !IsConst
	Value   int32  // constant value when IsConst
	IsConst bool
}

// String renders the term in source form.
func (t Term) String() string {
	if t.IsConst {
		return fmt.Sprintf("%d", t.Value)
	}
	return t.Var
}

// Atom is one body literal Rel(arg0, arg1) over a named binary relation.
type Atom struct {
	Rel  string
	Args [2]Term
}

// String renders the atom in source form.
func (a Atom) String() string {
	return fmt.Sprintf("%s(%s, %s)", a.Rel, a.Args[0], a.Args[1])
}

// HeadTerm is one projected output column: a plain variable, or the COUNT(v)
// aggregate (count of distinct v values per group of the plain head
// variables).
type HeadTerm struct {
	Var   string
	Count bool
}

// String renders the head term in source form.
func (h HeadTerm) String() string {
	if h.Count {
		return fmt.Sprintf("COUNT(%s)", h.Var)
	}
	return h.Var
}

// Hints are the optional WITH-clause strategy hints. The zero value means
// "no hints": the engine's own configuration applies.
type Hints struct {
	// Strategy pins the per-node plan choice: "auto", "mm", "wcoj" or
	// "nonmm". Empty defers to the engine.
	Strategy string
	// Workers bounds the evaluation parallelism; 0 defers to the engine.
	Workers int
}

func (h Hints) empty() bool { return h.Strategy == "" && h.Workers == 0 }

// String renders the hints in WITH-clause source form (without the WITH
// keyword); empty hints render as "".
func (h Hints) String() string {
	var b strings.Builder
	if h.Strategy != "" {
		b.WriteString("strategy=")
		b.WriteString(h.Strategy)
	}
	if h.Workers != 0 {
		if b.Len() > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "workers=%d", h.Workers)
	}
	return b.String()
}

// Query is the parsed AST of one rule.
type Query struct {
	// Name is the head predicate name (purely cosmetic).
	Name string
	// Head is the projection list, in output-column order.
	Head []HeadTerm
	// Atoms is the body conjunction.
	Atoms []Atom
	// Hints are the WITH-clause hints, if any.
	Hints Hints
}

// String renders the query in canonical source form; Parse(q.String()) yields
// an equal AST (the round-trip property the fuzz target checks).
func (q *Query) String() string {
	var b strings.Builder
	name := q.Name
	if name == "" {
		name = "Q"
	}
	b.WriteString(name)
	b.WriteByte('(')
	for i, h := range q.Head {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(h.String())
	}
	b.WriteString(") :- ")
	for i, a := range q.Atoms {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(a.String())
	}
	if !q.Hints.empty() {
		b.WriteString(" WITH ")
		b.WriteString(q.Hints.String())
	}
	return b.String()
}

// CountIndex returns the position of the COUNT head term, or -1.
func (q *Query) CountIndex() int {
	for i, h := range q.Head {
		if h.Count {
			return i
		}
	}
	return -1
}

// HeadVars returns the distinct variables referenced by the head, in first-
// appearance order (group variables and the COUNT variable alike).
func (q *Query) HeadVars() []string {
	var out []string
	seen := map[string]bool{}
	for _, h := range q.Head {
		if !seen[h.Var] {
			seen[h.Var] = true
			out = append(out, h.Var)
		}
	}
	return out
}

// Relations returns the distinct relation names the body reads, in first-
// appearance order. The slice is the caller's.
func (q *Query) Relations() []string {
	var out []string
	for _, a := range q.Atoms {
		if !slices.Contains(out, a.Rel) {
			out = append(out, a.Rel)
		}
	}
	return out
}
