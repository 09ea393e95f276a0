// Package hypertree computes generalized hypertree decompositions (GHDs) of
// query hypergraphs, the structure that lets the engine evaluate cyclic
// join-project queries with the same fold machinery it uses for acyclic ones
// ("Fast Matrix Multiplication meets the Submodular Width", Abo Khamis et
// al., 2024, is the state-of-the-art version of this connection).
//
// A decomposition is a tree of bags. Every bag is a set of vertices together
// with a cover: a set of hyperedges whose union contains the bag. The tree
// satisfies the usual properties — every hyperedge lands inside some bag,
// and the bags containing any one vertex form a connected subtree (the
// running-intersection property). The width of the decomposition is the
// largest cover size; acyclic queries are exactly the width-1 case.
//
// DecomposeScored searches elimination orders of the primal graph: every
// order yields a valid tree decomposition, whose bags are then covered with
// an exact minimum set cover. For hypergraphs of at most ExhaustiveLimit edges
// the search tries every order (exact in practice at query sizes); beyond
// that it falls back to the greedy min-fill heuristic, which is the standard
// polynomial-time approximation.
package hypertree

import (
	"fmt"
	"math/bits"
	"sort"
)

// Hypergraph is the input structure: NumVertices vertices numbered 0..n-1
// and a list of hyperedges, each a non-empty set of vertices. For a join
// query the vertices are variables and the hyperedges are atoms.
type Hypergraph struct {
	// NumVertices is the vertex-domain size; every edge vertex must be in
	// [0, NumVertices).
	NumVertices int
	// Edges are the hyperedges. Order is significant only in that bag covers
	// refer to edges by index.
	Edges [][]int
}

// Bag is one node of the decomposition tree.
type Bag struct {
	// Vertices is the bag's vertex set, sorted ascending.
	Vertices []int
	// Cover indexes the hyperedges whose union contains Vertices (the λ
	// labeling of the GHD). Its size bounds the bag join's AGM exponent.
	Cover []int
	// Parent is the index of the parent bag, or -1 for the root.
	Parent int
}

// Decomposition is a generalized hypertree decomposition: a rooted tree of
// covered bags.
type Decomposition struct {
	// Bags is the bag list; Bags[i].Parent < i never holds in general — use
	// the Parent pointers, not positional order, for tree walks.
	Bags []Bag
	// Width is the largest bag-cover size. Width 1 means the hypergraph is
	// acyclic (α-acyclic after edge-subsumption merging).
	Width int
}

// ExhaustiveLimit is the hyperedge count up to which DecomposeScored tries
// every vertex-elimination order; larger inputs use the greedy min-fill
// heuristic.
const ExhaustiveLimit = 6

// maxExhaustiveVertices caps the factorial search independently of the edge
// count (8! = 40320 orders, each linear work — still instant).
const maxExhaustiveVertices = 8

// DecomposeScored returns a GHD of h, minimizing width over the searched
// elimination orders, with a caller-supplied tie-break: among
// decompositions of equal (minimal) width, lower score wins, then fewer
// bags. The zero hypergraph yields one empty bag. The query compiler scores
// by how many bags would project to more than two variables, steering
// equal-width searches toward decompositions that re-enter the binary fold
// pipeline. A nil score is zero everywhere.
func DecomposeScored(h Hypergraph, score func(Decomposition) int) (Decomposition, error) {
	if err := checkInput(h); err != nil {
		return Decomposition{}, err
	}
	if h.NumVertices == 0 {
		return Decomposition{Bags: []Bag{{Parent: -1}}, Width: 0}, nil
	}
	exact := len(h.Edges) <= ExhaustiveLimit && h.NumVertices <= maxExhaustiveVertices
	base := primalMatrix(h) // shared read-only; fromOrder clones per order

	var best Decomposition
	bestScore := 0
	have := false
	consider := func(order []int) {
		d, ok := fromOrder(h, order, exact, base)
		if !ok {
			return
		}
		s := 0
		if score != nil {
			s = score(d)
		}
		if !have || d.Width < best.Width ||
			(d.Width == best.Width && (s < bestScore ||
				(s == bestScore && len(d.Bags) < len(best.Bags)))) {
			best, bestScore, have = d, s, true
		}
	}

	if exact {
		order := make([]int, h.NumVertices)
		for i := range order {
			order[i] = i
		}
		permute(order, 0, consider)
	} else {
		consider(minFillOrder(h))
	}
	if !have {
		return Decomposition{}, fmt.Errorf("hypertree: no cover found (isolated vertex outside every edge)")
	}
	return best, nil
}

// checkInput validates edge vertex ranges and non-emptiness.
func checkInput(h Hypergraph) error {
	for i, e := range h.Edges {
		if len(e) == 0 {
			return fmt.Errorf("hypertree: edge %d is empty", i)
		}
		for _, v := range e {
			if v < 0 || v >= h.NumVertices {
				return fmt.Errorf("hypertree: edge %d has vertex %d outside [0, %d)", i, v, h.NumVertices)
			}
		}
	}
	return nil
}

// permute enumerates the permutations of order[k:] in lexicographic-ish
// order, invoking f on the full slice for each.
func permute(order []int, k int, f func([]int)) {
	if k == len(order) {
		f(order)
		return
	}
	for i := k; i < len(order); i++ {
		order[k], order[i] = order[i], order[k]
		permute(order, k+1, f)
		order[k], order[i] = order[i], order[k]
	}
}

// primal builds the primal-graph adjacency sets: u and v are adjacent when
// some hyperedge contains both.
func primal(h Hypergraph) []map[int]bool {
	adj := make([]map[int]bool, h.NumVertices)
	for i := range adj {
		adj[i] = map[int]bool{}
	}
	for _, e := range h.Edges {
		for i, u := range e {
			for _, v := range e[i+1:] {
				if u != v {
					adj[u][v] = true
					adj[v][u] = true
				}
			}
		}
	}
	return adj
}

// minFillOrder returns the greedy min-fill elimination order: repeatedly
// eliminate the vertex whose elimination adds the fewest fill edges (ties to
// the lowest vertex id, for determinism).
func minFillOrder(h Hypergraph) []int {
	adj := primal(h)
	eliminated := make([]bool, h.NumVertices)
	order := make([]int, 0, h.NumVertices)
	for len(order) < h.NumVertices {
		bestV, bestFill := -1, -1
		for v := 0; v < h.NumVertices; v++ {
			if eliminated[v] {
				continue
			}
			fill := 0
			var nbrs []int
			for u := range adj[v] {
				if !eliminated[u] {
					nbrs = append(nbrs, u)
				}
			}
			for i, u := range nbrs {
				for _, w := range nbrs[i+1:] {
					if !adj[u][w] {
						fill++
					}
				}
			}
			if bestV < 0 || fill < bestFill || (fill == bestFill && v < bestV) {
				bestV, bestFill = v, fill
			}
		}
		// Eliminate: clique the live neighborhood.
		var nbrs []int
		for u := range adj[bestV] {
			if !eliminated[u] {
				nbrs = append(nbrs, u)
			}
		}
		for i, u := range nbrs {
			for _, w := range nbrs[i+1:] {
				adj[u][w] = true
				adj[w][u] = true
			}
		}
		eliminated[bestV] = true
		order = append(order, bestV)
	}
	return order
}

// primalMatrix builds the dense primal-graph adjacency matrix: u and v are
// adjacent when some hyperedge contains both. Computed once per
// DecomposeScored call and cloned per elimination order, which keeps the exhaustive search
// free of per-permutation map churn.
func primalMatrix(h Hypergraph) [][]bool {
	n := h.NumVertices
	adj := make([][]bool, n)
	for i := range adj {
		adj[i] = make([]bool, n)
	}
	for _, e := range h.Edges {
		for i, u := range e {
			for _, v := range e[i+1:] {
				if u != v {
					adj[u][v] = true
					adj[v][u] = true
				}
			}
		}
	}
	return adj
}

// fromOrder builds the tree decomposition induced by one elimination order,
// merges subset bags into their parents, and covers every bag (exactly when
// exact, greedily otherwise). base is the read-only primal adjacency
// matrix. Returns ok=false when some bag cannot be covered by the
// hyperedges (a vertex outside every edge).
func fromOrder(h Hypergraph, order []int, exact bool, base [][]bool) (Decomposition, bool) {
	n := h.NumVertices
	pos := make([]int, n)
	for i, v := range order {
		pos[v] = i
	}
	adj := make([][]bool, n)
	for i := range adj {
		adj[i] = append([]bool(nil), base[i]...)
	}

	// Elimination bags: bag(v) = {v} ∪ later live neighbors; eliminating v
	// cliques that neighborhood.
	bagOf := make([][]int, n) // by elimination position
	for i, v := range order {
		var later []int
		for u := 0; u < n; u++ {
			if adj[v][u] && pos[u] > i {
				later = append(later, u)
			}
		}
		for a, u := range later {
			for _, w := range later[a+1:] {
				adj[u][w] = true
				adj[w][u] = true
			}
		}
		bag := append([]int{v}, later...)
		sort.Ints(bag)
		bagOf[i] = bag
	}

	// Parent links: bag(v) hangs below the bag of the earliest-eliminated
	// vertex of bag(v)\{v}; a singleton bag (v's component is exhausted)
	// hangs below the next bag in order, which keeps the forest a tree.
	parent := make([]int, n)
	for i, v := range order {
		parent[i] = -1
		if i == n-1 {
			continue
		}
		minPos := n
		for _, u := range bagOf[i] {
			if u != v && pos[u] < minPos {
				minPos = pos[u]
			}
		}
		if minPos == n {
			minPos = i + 1
		}
		parent[i] = minPos
	}

	// Contract tree edges whose endpoint bags are nested (in either
	// direction) until none remain — the standard cleanup that turns the raw
	// elimination tree into a minimal bag tree.
	alive := make([]bool, n)
	for i := range alive {
		alive[i] = true
	}
	for changed := true; changed; {
		changed = false
		for i := 0; i < n && !changed; i++ {
			if !alive[i] || parent[i] < 0 {
				continue
			}
			p := parent[i]
			switch {
			case subset(bagOf[i], bagOf[p]):
				// Drop the child; its children reattach to the parent.
				alive[i] = false
				for j := 0; j < n; j++ {
					if alive[j] && parent[j] == i {
						parent[j] = p
					}
				}
				changed = true
			case subset(bagOf[p], bagOf[i]):
				// Drop the parent; the child takes its place in the tree.
				alive[p] = false
				parent[i] = parent[p]
				for j := 0; j < n; j++ {
					if alive[j] && j != i && parent[j] == p {
						parent[j] = i
					}
				}
				changed = true
			}
		}
	}

	var d Decomposition
	idx := make([]int, n) // elimination position → bag index
	for i := 0; i < n; i++ {
		if !alive[i] {
			continue
		}
		idx[i] = len(d.Bags)
		d.Bags = append(d.Bags, Bag{Vertices: bagOf[i], Parent: -1})
	}
	for i := 0; i < n; i++ {
		if !alive[i] {
			continue
		}
		if p := parent[i]; p >= 0 {
			d.Bags[idx[i]].Parent = idx[p]
		}
	}

	for i := range d.Bags {
		cover, ok := coverBag(h, d.Bags[i].Vertices, exact)
		if !ok {
			return Decomposition{}, false
		}
		d.Bags[i].Cover = cover
		if len(cover) > d.Width {
			d.Width = len(cover)
		}
	}
	return d, true
}

// subset reports a ⊆ b for sorted slices.
func subset(a, b []int) bool {
	j := 0
	for _, v := range a {
		for j < len(b) && b[j] < v {
			j++
		}
		if j == len(b) || b[j] != v {
			return false
		}
	}
	return true
}

// coverBag picks hyperedges whose union contains the bag. With exact set, it
// finds a minimum cover by enumerating candidate-edge subsets in increasing
// size (candidates are the edges that intersect the bag, so the mask space
// stays tiny at query scale); otherwise it covers greedily.
func coverBag(h Hypergraph, bag []int, exact bool) ([]int, bool) {
	inBag := map[int]bool{}
	for _, v := range bag {
		inBag[v] = true
	}
	var cand []int   // edge indices intersecting the bag
	var masks []uint // per candidate: bitmask over bag positions it covers
	bagPos := map[int]int{}
	for i, v := range bag {
		bagPos[v] = i
	}
	for ei, e := range h.Edges {
		var m uint
		for _, v := range e {
			if inBag[v] {
				m |= 1 << bagPos[v]
			}
		}
		if m != 0 {
			cand = append(cand, ei)
			masks = append(masks, m)
		}
	}
	full := uint(1)<<len(bag) - 1
	var all uint
	for _, m := range masks {
		all |= m
	}
	if all != full {
		return nil, false
	}

	if exact && len(cand) <= 20 {
		best := -1
		bestBits := len(cand) + 1
		for sub := uint(1); sub < 1<<len(cand); sub++ {
			nb := bits.OnesCount(sub)
			if nb >= bestBits {
				continue
			}
			var m uint
			for i := range cand {
				if sub&(1<<i) != 0 {
					m |= masks[i]
				}
			}
			if m == full {
				best, bestBits = int(sub), nb
			}
		}
		var out []int
		for i := range cand {
			if best&(1<<i) != 0 {
				out = append(out, cand[i])
			}
		}
		return out, true
	}

	// Greedy: repeatedly take the edge covering the most uncovered vertices.
	var out []int
	covered := uint(0)
	for covered != full {
		bestI, bestGain := -1, 0
		for i, m := range masks {
			if gain := bits.OnesCount(m &^ covered); gain > bestGain {
				bestI, bestGain = i, gain
			}
		}
		covered |= masks[bestI]
		out = append(out, cand[bestI])
	}
	sort.Ints(out)
	return out, true
}
