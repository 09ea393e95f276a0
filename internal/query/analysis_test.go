package query

import (
	"reflect"
	"testing"
)

// TestAnalyze pins the structural reading both the compiler and the view
// layer build on: numbering, atom classes, edges, components, tree-ness and
// the head layout.
func TestAnalyze(t *testing.T) {
	q, err := Parse("Q(z, COUNT(x), z) :- R(x, y), S(z, y), T(y, x), U(w, 3), U(w, w), R(1, 2), S(u, v)")
	if err != nil {
		t.Fatal(err)
	}
	an, err := Analyze(q)
	if err != nil {
		t.Fatal(err)
	}
	want := &Analysis{
		Vars: []string{"x", "y", "z", "w", "u", "v"},
		Atoms: []AtomInfo{
			{Class: AtomBinary, A: 0, B: 1, Edge: 0},
			{Class: AtomBinary, A: 2, B: 1, Edge: 1},
			{Class: AtomBinary, A: 1, B: 0, Edge: 0}, // parallel to the first, reversed
			{Class: AtomConst, A: 3, B: -1, Edge: -1},
			{Class: AtomSelfLoop, A: 3, B: 3, Edge: -1},
			{Class: AtomGround, A: -1, B: -1, Edge: -1},
			{Class: AtomBinary, A: 4, B: 5, Edge: 2},
		},
		Edges: [][2]int{{0, 1}, {2, 1}, {4, 5}},
		Comps: []Component{
			{Vars: []int{0, 1, 2}, Edges: []int{0, 1}, Heads: []int{2, 0}, Tree: true},
			{Vars: []int{3}, Tree: true},
			{Vars: []int{4, 5}, Edges: []int{2}, Tree: true},
		},
		Head: HeadLayout{Vars: []int{2, 0}, Pos: []int{0, 1, 0}, CountIdx: 1},
		Rels: []string{"R", "S", "T", "U"},
	}
	if !reflect.DeepEqual(an, want) {
		t.Fatalf("Analyze:\n got %+v\nwant %+v", an, want)
	}

	tri, _ := Parse("Q() :- R(x, y), S(y, z), T(z, x)")
	if an, _ := Analyze(tri); an.Comps[0].Tree {
		t.Fatal("a triangle is not a tree")
	}
	if _, err := Analyze(&Query{Head: []HeadTerm{{Var: "q"}}, Atoms: tri.Atoms}); err == nil {
		t.Fatal("an unbound head variable must be an error")
	}

	// The projector: rows arrive over the distinct head variables in any
	// column order; COUNT counts rows per group of the other terms.
	rows := [][]int32{{7, 1}, {8, 1}, {9, 2}} // columns (x, z)
	got := want.Head.Project([]int{0, 2}, rows)
	if wantRows := [][]int64{{1, 2, 1}, {2, 1, 2}}; !reflect.DeepEqual(got, wantRows) {
		t.Fatalf("Project = %v, want %v", got, wantRows)
	}
}
