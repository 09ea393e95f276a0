package view

import (
	"slices"

	"repro/internal/query"
	"repro/internal/wcoj"
)

// Shape names for maintenance plans.
const (
	// ShapeTwoPath is the 2-atom join-project π_{x,z}(R(x,y) ⋈ S(z,y)):
	// delta folds run the MM/WCOJ kernels with a per-delta strategy choice.
	ShapeTwoPath = "twopath"
	// ShapeStar is a k-armed star around a non-head center: a delta on one
	// arm re-folds only that arm against the others through the center.
	ShapeStar = "star"
	// ShapeTree is any other acyclic shape: deltas extend through the join
	// tree one variable at a time.
	ShapeTree = "tree"
)

// maintPlan is a compiled maintenance plan for one incrementally
// maintainable view. Its structure — variable numbering, atom endpoints,
// head layout, relation names — is the query compiler's analysis; what is
// added here is the shape label and the per-slot extension orders of the
// delta rule
//
//	ΔQ = Σ_j Q(S₁'…S'_{j-1}, ΔS_j, S_{j+1}…S_k)
//
// where a slot is one atom occurrence (the same relation appearing in
// several atoms yields several slots) and primed slots read the
// post-mutation relation.
type maintPlan struct {
	q      *query.Query
	an     *query.Analysis
	shape  string
	shared int          // twopath: join variable; star: center; else -1
	orders []*wcoj.Plan // per slot: extends a delta tuple through the other slots
}

// compileMaint builds the maintenance plan for q, or explains why q falls
// outside the incrementally-maintainable fragment (reason != ""): the
// fragment is single-component acyclic join graphs over binary atoms with
// two distinct variables each (no constants, no self-loops, no cross
// products, no cycles, no parallel atoms). Queries outside it are maintained
// by full refresh.
func compileMaint(q *query.Query) (*maintPlan, string) {
	an, err := query.Analyze(q)
	if err != nil {
		return nil, err.Error()
	}
	for _, at := range an.Atoms {
		switch at.Class {
		case query.AtomConst, query.AtomGround:
			return nil, "constant arguments (selection atoms) are outside the incremental fragment"
		case query.AtomSelfLoop:
			return nil, "self-loop atoms are outside the incremental fragment"
		}
	}
	if len(an.Comps) != 1 {
		return nil, "cross products (multiple join components) are outside the incremental fragment"
	}
	if !an.Comps[0].Tree || len(an.Edges) != len(an.Atoms) {
		return nil, "cyclic join graph: maintained by full refresh (bagjoin plans are not delta-decomposable)"
	}
	p := &maintPlan{q: q, an: an, shared: -1}
	p.classify()

	// The fragment is a tree, so from a delta tuple's two variables every
	// other variable is reached through exactly one slot: no step ever has
	// both endpoints of a slot bound, and each walks one partner list.
	atoms := make([][2]int, len(an.Atoms))
	for i, at := range an.Atoms {
		atoms[i] = [2]int{at.A, at.B}
	}
	p.orders = make([]*wcoj.Plan, len(atoms))
	for j, at := range atoms {
		var free []int
		for v := range an.Vars {
			if v != at[0] && v != at[1] {
				free = append(free, v)
			}
		}
		p.orders[j] = wcoj.NewPlan(atoms, at[:], free)
	}
	return p, ""
}

// rel returns the relation name slot j reads.
func (p *maintPlan) rel(j int) string { return p.q.Atoms[j].Rel }

// classify detects the twopath and star shapes (for the kernel fast path and
// EXPLAIN); everything else in the fragment is a generic tree.
func (p *maintPlan) classify() {
	slots := p.an.Atoms
	isHead := func(v int) bool { return slices.Contains(p.an.Head.Vars, v) }
	p.shape = ShapeTree
	if len(slots) == 2 {
		s0, s1 := slots[0], slots[1]
		for _, v := range []int{s0.A, s0.B} {
			if (v == s1.A || v == s1.B) && !isHead(v) {
				e0, e1 := s0.Other(v), s1.Other(v)
				if isHead(e0) && isHead(e1) && e0 != e1 {
					p.shape, p.shared = ShapeTwoPath, v
				}
				return
			}
		}
		return
	}
	if len(slots) >= 3 {
		for _, cand := range []int{slots[0].A, slots[0].B} {
			common := true
			for _, s := range slots {
				if s.A != cand && s.B != cand {
					common = false
					break
				}
			}
			if common && !isHead(cand) {
				p.shape, p.shared = ShapeStar, cand
				return
			}
		}
	}
}
