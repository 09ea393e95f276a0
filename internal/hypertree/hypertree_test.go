package hypertree

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
)

// graph builds a Hypergraph from binary edges.
func graph(n int, edges ...[2]int) Hypergraph {
	h := Hypergraph{NumVertices: n}
	for _, e := range edges {
		h.Edges = append(h.Edges, []int{e[0], e[1]})
	}
	return h
}

func mustDecompose(t *testing.T, h Hypergraph) Decomposition {
	t.Helper()
	d, err := DecomposeScored(h, nil)
	if err != nil {
		t.Fatalf("Decompose: %v", err)
	}
	if err := Validate(h, d); err != nil {
		t.Fatalf("Validate: %v\nbags: %+v", err, d.Bags)
	}
	return d
}

func TestTriangle(t *testing.T) {
	h := graph(3, [2]int{0, 1}, [2]int{1, 2}, [2]int{2, 0})
	d := mustDecompose(t, h)
	if d.Width != 2 {
		t.Fatalf("triangle width = %d; want 2", d.Width)
	}
	if len(d.Bags) != 1 {
		t.Fatalf("triangle bags = %d; want 1", len(d.Bags))
	}
	if got := d.Bags[0].Vertices; len(got) != 3 {
		t.Fatalf("triangle bag = %v; want all three vertices", got)
	}
}

func TestFourCycle(t *testing.T) {
	h := graph(4, [2]int{0, 1}, [2]int{1, 2}, [2]int{2, 3}, [2]int{3, 0})
	d := mustDecompose(t, h)
	if d.Width != 2 {
		t.Fatalf("4-cycle width = %d; want 2", d.Width)
	}
	if len(d.Bags) != 2 {
		t.Fatalf("4-cycle bags = %d; want 2", len(d.Bags))
	}
}

func TestBowtie(t *testing.T) {
	// Two triangles sharing vertex 2.
	h := graph(5,
		[2]int{0, 1}, [2]int{1, 2}, [2]int{2, 0},
		[2]int{2, 3}, [2]int{3, 4}, [2]int{4, 2})
	d := mustDecompose(t, h)
	if d.Width != 2 {
		t.Fatalf("bowtie width = %d; want 2", d.Width)
	}
}

func TestK4(t *testing.T) {
	h := graph(4,
		[2]int{0, 1}, [2]int{0, 2}, [2]int{0, 3},
		[2]int{1, 2}, [2]int{1, 3}, [2]int{2, 3})
	d := mustDecompose(t, h)
	// K4 has generalized hypertree width 2 (bags {0,1,2} and {0,1,3}... any
	// two triangles sharing an edge): treewidth 3, but two edges cover each
	// 3-vertex bag.
	if d.Width != 2 {
		t.Fatalf("K4 width = %d; want 2", d.Width)
	}
}

func TestAcyclicPathIsWidthOne(t *testing.T) {
	h := graph(4, [2]int{0, 1}, [2]int{1, 2}, [2]int{2, 3})
	d := mustDecompose(t, h)
	if d.Width != 1 {
		t.Fatalf("path width = %d; want 1", d.Width)
	}
}

func TestSingleEdge(t *testing.T) {
	h := graph(2, [2]int{0, 1})
	d := mustDecompose(t, h)
	if d.Width != 1 || len(d.Bags) != 1 {
		t.Fatalf("single edge: width=%d bags=%d; want 1, 1", d.Width, len(d.Bags))
	}
}

func TestTernaryEdges(t *testing.T) {
	// Hyperedges beyond arity 2 are covered too: one ternary edge makes its
	// triangle width 1.
	h := Hypergraph{NumVertices: 3, Edges: [][]int{{0, 1, 2}, {0, 1}}}
	d := mustDecompose(t, h)
	if d.Width != 1 {
		t.Fatalf("ternary width = %d; want 1", d.Width)
	}
}

func TestGreedyFallbackLargeCycle(t *testing.T) {
	// A 9-cycle has 9 edges > ExhaustiveLimit: the min-fill fallback must
	// still produce a valid width-2 decomposition.
	n := 9
	var edges [][2]int
	for i := 0; i < n; i++ {
		edges = append(edges, [2]int{i, (i + 1) % n})
	}
	h := graph(n, edges...)
	d := mustDecompose(t, h)
	if d.Width != 2 {
		t.Fatalf("9-cycle greedy width = %d; want 2", d.Width)
	}
}

func TestRandomGraphsValidate(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for iter := 0; iter < 200; iter++ {
		n := 2 + rng.Intn(7)
		m := 1 + rng.Intn(10)
		var edges [][2]int
		seen := map[[2]int]bool{}
		for i := 0; i < m; i++ {
			a, b := rng.Intn(n), rng.Intn(n)
			if a == b {
				continue
			}
			if a > b {
				a, b = b, a
			}
			if seen[[2]int{a, b}] {
				continue
			}
			seen[[2]int{a, b}] = true
			edges = append(edges, [2]int{a, b})
		}
		if len(edges) == 0 {
			continue
		}
		// Restrict vertices to those actually used, as the query compiler
		// does (isolated vertices are uncoverable by design).
		used := map[int]bool{}
		for _, e := range edges {
			used[e[0]] = true
			used[e[1]] = true
		}
		remap := map[int]int{}
		for v := 0; v < n; v++ {
			if used[v] {
				remap[v] = len(remap)
			}
		}
		h := Hypergraph{NumVertices: len(remap)}
		for _, e := range edges {
			h.Edges = append(h.Edges, []int{remap[e[0]], remap[e[1]]})
		}
		d, err := DecomposeScored(h, nil)
		if err != nil {
			t.Fatalf("iter %d: Decompose(%v): %v", iter, h.Edges, err)
		}
		if err := Validate(h, d); err != nil {
			t.Fatalf("iter %d: %v\ngraph: %v\nbags: %+v", iter, err, h.Edges, d.Bags)
		}
	}
}

func TestIsolatedVertexFails(t *testing.T) {
	h := Hypergraph{NumVertices: 3, Edges: [][]int{{0, 1}}}
	if _, err := DecomposeScored(h, nil); err == nil {
		t.Fatal("want error for vertex outside every edge")
	}
}

func TestValidateRejectsBrokenRIP(t *testing.T) {
	h := graph(3, [2]int{0, 1}, [2]int{1, 2})
	d := Decomposition{Bags: []Bag{
		{Vertices: []int{0, 1}, Cover: []int{0}, Parent: -1},
		{Vertices: []int{1, 2}, Cover: []int{1}, Parent: 0},
		{Vertices: []int{0}, Cover: []int{0}, Parent: 1}, // 0 reappears below a bag without it
	}}
	if err := Validate(h, d); err == nil {
		t.Fatal("want running-intersection violation")
	}
}

func ExampleDecomposeScored() {
	// The triangle query Q(x,z) :- R(x,y), S(y,z), T(z,x).
	h := Hypergraph{NumVertices: 3, Edges: [][]int{{0, 1}, {1, 2}, {2, 0}}}
	d, _ := DecomposeScored(h, nil)
	fmt.Println("width:", d.Width, "bags:", len(d.Bags))
	// Output:
	// width: 2 bags: 1
}

// Validate checks that d is a proper GHD of h: a single-rooted tree whose
// bags cover every vertex and every hyperedge, satisfy the
// running-intersection property, and are each contained in the union of
// their cover edges. It is the oracle the decomposition tests check
// against; a nil return means the decomposition is sound.
func Validate(h Hypergraph, d Decomposition) error {
	if len(d.Bags) == 0 {
		return fmt.Errorf("hypertree: no bags")
	}
	roots := 0
	for i, b := range d.Bags {
		if b.Parent == -1 {
			roots++
		} else if b.Parent < 0 || b.Parent >= len(d.Bags) {
			return fmt.Errorf("hypertree: bag %d has invalid parent %d", i, b.Parent)
		}
	}
	if roots != 1 {
		return fmt.Errorf("hypertree: %d roots; want 1", roots)
	}
	// Acyclic parent chains.
	for i := range d.Bags {
		seen := map[int]bool{}
		for p := i; p != -1; p = d.Bags[p].Parent {
			if seen[p] {
				return fmt.Errorf("hypertree: parent cycle through bag %d", i)
			}
			seen[p] = true
		}
	}
	// Vertex and edge coverage.
	vertexBags := make([][]int, h.NumVertices)
	for i, b := range d.Bags {
		for _, v := range b.Vertices {
			if v < 0 || v >= h.NumVertices {
				return fmt.Errorf("hypertree: bag %d has out-of-range vertex %d", i, v)
			}
			vertexBags[v] = append(vertexBags[v], i)
		}
	}
	for v := 0; v < h.NumVertices; v++ {
		if len(vertexBags[v]) == 0 {
			return fmt.Errorf("hypertree: vertex %d is in no bag", v)
		}
	}
	for ei, e := range h.Edges {
		housed := false
		for _, b := range d.Bags {
			if subsetOfSet(e, b.Vertices) {
				housed = true
				break
			}
		}
		if !housed {
			return fmt.Errorf("hypertree: edge %d fits in no bag", ei)
		}
	}
	// Running intersection: for each vertex, exactly one of its bags has a
	// parent not containing it (the subtree's top).
	for v := 0; v < h.NumVertices; v++ {
		tops := 0
		for _, bi := range vertexBags[v] {
			p := d.Bags[bi].Parent
			if p == -1 || !containsVertex(d.Bags[p].Vertices, v) {
				tops++
			}
		}
		if tops != 1 {
			return fmt.Errorf("hypertree: vertex %d spans %d disconnected subtrees", v, tops)
		}
	}
	// Covers.
	for i, b := range d.Bags {
		in := map[int]bool{}
		for _, ei := range b.Cover {
			if ei < 0 || ei >= len(h.Edges) {
				return fmt.Errorf("hypertree: bag %d covers with invalid edge %d", i, ei)
			}
			for _, v := range h.Edges[ei] {
				in[v] = true
			}
		}
		for _, v := range b.Vertices {
			if !in[v] {
				return fmt.Errorf("hypertree: bag %d vertex %d not covered by λ", i, v)
			}
		}
	}
	return nil
}

// subsetOfSet reports whether every element of a appears in sorted b.
func subsetOfSet(a, b []int) bool {
	for _, v := range a {
		if !containsVertex(b, v) {
			return false
		}
	}
	return true
}

// containsVertex reports membership of v in a sorted vertex list.
func containsVertex(s []int, v int) bool {
	i := sort.SearchInts(s, v)
	return i < len(s) && s[i] == v
}
