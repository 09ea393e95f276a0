package main

import (
	"fmt"
	"slices"
	"strconv"
	"strings"

	"repro/internal/relation"
)

// slot is the atom argument a shape's constant goes into. A shape has at
// most one; the oracle treats it as one more group variable, so one
// evaluation answers the shape for every constant at once.
const slot = "$"

// atom is one body literal over a binary relation; arguments are variable
// names or slot.
type atom struct {
	rel  string
	a, b string
}

// shape is one request class: a conjunctive query, optionally with a
// constant slot and a COUNT(count) last head column.
type shape struct {
	name  string
	head  []string // plain head variables, in column order
	count string   // variable under COUNT, or ""
	atoms []atom
}

// text renders the shape with constant c in the slot, followed by an
// optional WITH clause.
func (s shape) text(c int32, with string) string {
	var b strings.Builder
	b.WriteString("Q(")
	b.WriteString(strings.Join(s.head, ", "))
	if s.count != "" {
		if len(s.head) > 0 {
			b.WriteString(", ")
		}
		b.WriteString("COUNT(" + s.count + ")")
	}
	b.WriteString(") :- ")
	arg := func(v string) string {
		if v == slot {
			return strconv.Itoa(int(c))
		}
		return v
	}
	for i, a := range s.atoms {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%s(%s, %s)", a.rel, arg(a.a), arg(a.b))
	}
	if with != "" {
		b.WriteString(" WITH " + with)
	}
	return b.String()
}

func (s shape) hasSlot() bool {
	for _, a := range s.atoms {
		if a.a == slot || a.b == slot {
			return true
		}
	}
	return false
}

// row is one tuple of an intermediate result; a factor uses the first
// len(vars) entries. Four columns are enough for every shape in the suite.
type row [4]int32

type factor struct {
	vars []string
	rows []row
}

func (f factor) col(v string) int { return slices.Index(f.vars, v) }

// answers is the oracle's result for one shape: for each constant (key 0
// when the shape has no slot) the distinct head tuples in sorted order.
type answers map[int32][][]int64

// solve evaluates the shape by variable elimination — join every factor
// that mentions a non-head variable, project the variable away, dedupe,
// repeat — which is nested-loop semantics with early projection. It shares
// no code with the engine: hash joins over plain slices, no degree
// thresholds, no matrices, no plan.
func solve(s shape, db map[string][]relation.Pair) answers {
	keep := slices.Clone(s.head)
	if s.count != "" {
		keep = append(keep, s.count)
	}
	if s.hasSlot() {
		keep = append([]string{slot}, keep...)
	}
	var fs []factor
	for _, a := range s.atoms {
		f := factor{vars: []string{a.a, a.b}, rows: make([]row, len(db[a.rel]))}
		for i, p := range db[a.rel] {
			f.rows[i] = row{p.X, p.Y}
		}
		fs = append(fs, f)
	}
	for {
		// Eliminate the variable whose factors are smallest first: cheap
		// joins shrink the inputs of the expensive ones.
		victim, best := "", 0
		for _, f := range fs {
			for _, v := range f.vars {
				if slices.Contains(keep, v) {
					continue
				}
				cost := 0
				for _, g := range fs {
					if g.col(v) >= 0 {
						cost += len(g.rows)
					}
				}
				if victim == "" || cost < best {
					victim, best = v, cost
				}
			}
		}
		if victim == "" {
			break
		}
		fs = joinOn(fs, victim, true)
	}
	for len(fs) > 1 {
		// What is left mentions only kept variables; join on any shared one.
		fs = joinOn(fs, sharedVar(fs), false)
	}
	out := fs[0]
	res := answers{}
	idx := make([]int, len(keep))
	for i, v := range keep {
		idx[i] = out.col(v)
	}
	groups := map[int32]map[row]int64{} // constant → head tuple → distinct count values
	for _, r := range out.rows {
		var key int32
		var h row
		vals := idx
		if s.hasSlot() {
			key, vals = r[idx[0]], idx[1:]
		}
		n := len(s.head)
		for i := 0; i < n; i++ {
			h[i] = r[vals[i]]
		}
		if groups[key] == nil {
			groups[key] = map[row]int64{}
		}
		groups[key][h]++ // rows are distinct over keep, so this counts distinct s.count values
	}
	for key, g := range groups {
		tuples := make([][]int64, 0, len(g))
		for h, n := range g {
			t := make([]int64, 0, len(s.head)+1)
			for i := range s.head {
				t = append(t, int64(h[i]))
			}
			if s.count != "" {
				t = append(t, n)
			}
			tuples = append(tuples, t)
		}
		sortTuples(tuples)
		res[key] = tuples
	}
	return res
}

// get returns the answer for constant c. A global COUNT with no witnesses is
// the single row [0], every other empty answer is no rows.
func (a answers) get(s shape, c int32) [][]int64 {
	if !s.hasSlot() {
		c = 0
	}
	if t, ok := a[c]; ok {
		return t
	}
	if s.count != "" && len(s.head) == 0 {
		return [][]int64{{0}}
	}
	return nil
}

func sharedVar(fs []factor) string {
	for _, v := range fs[0].vars {
		for _, g := range fs[1:] {
			if g.col(v) >= 0 {
				return v
			}
		}
	}
	panic("bench: shape with disconnected body")
}

// joinOn replaces every factor mentioning v by their join, deduplicated,
// with v projected away when drop is set.
func joinOn(fs []factor, v string, drop bool) []factor {
	var with, rest []factor
	for _, f := range fs {
		if f.col(v) >= 0 {
			with = append(with, f)
		} else {
			rest = append(rest, f)
		}
	}
	slices.SortFunc(with, func(a, b factor) int { return len(a.rows) - len(b.rows) })
	acc := with[0]
	for i, g := range with[1:] {
		dropVar := ""
		if drop && i == len(with)-2 {
			dropVar = v // project inside the last join: the full join is never held
		}
		acc = hashJoin(acc, g, dropVar)
	}
	if drop && len(with) == 1 {
		acc = hashJoin(acc, factor{}, v)
	}
	return append(rest, acc)
}

// hashJoin joins l and r on every variable they share, drops dropVar from
// the output and removes duplicate rows. An empty r is a plain projection.
func hashJoin(l, r factor, dropVar string) factor {
	var lk, rk []int // positions of the shared variables
	var extra []int  // positions in r of the variables only r has
	for j, v := range r.vars {
		if i := l.col(v); i >= 0 {
			lk, rk = append(lk, i), append(rk, j)
		} else {
			extra = append(extra, j)
		}
	}
	type src struct {
		fromR bool
		pos   int
	}
	var outVars []string
	var from []src
	for i, v := range l.vars {
		if v != dropVar {
			outVars, from = append(outVars, v), append(from, src{false, i})
		}
	}
	for _, j := range extra {
		if r.vars[j] != dropVar {
			outVars, from = append(outVars, r.vars[j]), append(from, src{true, j})
		}
	}
	if len(outVars) > len(row{}) {
		panic(fmt.Sprintf("bench: oracle factor over %v is wider than %d columns", outVars, len(row{})))
	}
	seen := map[row]struct{}{}
	emit := func(a, b row) {
		var o row
		for i, s := range from {
			if s.fromR {
				o[i] = b[s.pos]
			} else {
				o[i] = a[s.pos]
			}
		}
		seen[o] = struct{}{}
	}
	if len(r.vars) == 0 {
		for _, a := range l.rows {
			emit(a, row{})
		}
	} else {
		index := make(map[row][]int32, len(r.rows))
		for i, b := range r.rows {
			var k row
			for n, j := range rk {
				k[n] = b[j]
			}
			index[k] = append(index[k], int32(i))
		}
		for _, a := range l.rows {
			var k row
			for n, i := range lk {
				k[n] = a[i]
			}
			for _, i := range index[k] {
				emit(a, r.rows[i])
			}
		}
	}
	out := factor{vars: outVars, rows: make([]row, 0, len(seen))}
	for o := range seen {
		out.rows = append(out.rows, o)
	}
	return out
}

func sortTuples(ts [][]int64) {
	slices.SortFunc(ts, func(a, b []int64) int { return slices.Compare(a, b) })
}

// sameTuples compares a served result with the oracle's as multisets.
func sameTuples(got, want [][]int64) bool {
	got = slices.Clone(got)
	sortTuples(got)
	return slices.EqualFunc(got, want, func(a, b []int64) bool { return slices.Equal(a, b) })
}
