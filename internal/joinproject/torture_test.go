package joinproject

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/relation"
)

// Torture tests: adversarial degree distributions that stress specific
// corners of the partitioning logic.

// Single shared y value: the densest possible witness structure — one
// column, all output through it.
func TestTortureSingleY(t *testing.T) {
	var ps []relation.Pair
	for x := int32(0); x < 200; x++ {
		ps = append(ps, relation.Pair{X: x, Y: 7})
	}
	r := relation.FromPairs("oneY", ps)
	want := bruteCounts(r, r)
	for _, d := range []int{1, 100, 1000} {
		got := countsToMap(TwoPathCounts(r, r, Options{Delta1: d, Delta2: d}, true))
		if len(got) != 200*200 {
			t.Fatalf("d=%d: %d pairs, want 40000", d, len(got))
		}
		for p, c := range want {
			if got[p] != c {
				t.Fatalf("d=%d: pair %v count %d, want %d", d, p, got[p], c)
			}
		}
	}
}

// Perfect matching: every x has exactly one y and vice versa — the sparsest
// possible instance, no heavy values at any threshold ≥ 1.
func TestTortureMatching(t *testing.T) {
	var ps []relation.Pair
	for i := int32(0); i < 500; i++ {
		ps = append(ps, relation.Pair{X: i, Y: i})
	}
	r := relation.FromPairs("match", ps)
	got := groupPairs(r, r, Options{Delta1: 1, Delta2: 1}, true)
	if len(got) != 500 {
		t.Fatalf("matching join-project = %d pairs, want 500 self-pairs", len(got))
	}
	for _, p := range got {
		if p[0] != p[1] {
			t.Fatalf("matching produced cross pair %v", p)
		}
	}
}

// One super-heavy hub x connected to everything, rest singletons: exercises
// the heavy-x/light-y and heavy-x/heavy-y boundaries simultaneously.
func TestTortureHub(t *testing.T) {
	var ps []relation.Pair
	for y := int32(0); y < 300; y++ {
		ps = append(ps, relation.Pair{X: 0, Y: y}) // hub
	}
	for i := int32(1); i <= 300; i++ {
		ps = append(ps, relation.Pair{X: i, Y: i - 1}) // singletons
	}
	r := relation.FromPairs("hub", ps)
	want := bruteCounts(r, r)
	for _, d1 := range []int{1, 2, 50} {
		for _, d2 := range []int{1, 2, 50} {
			got := countsToMap(TwoPathCounts(r, r, Options{Delta1: d1, Delta2: d2}, true))
			if len(got) != len(want) {
				t.Fatalf("d=(%d,%d): %d pairs, want %d", d1, d2, len(got), len(want))
			}
			for p, c := range want {
				if got[p] != c {
					t.Fatalf("d=(%d,%d): pair %v count %d, want %d", d1, d2, p, got[p], c)
				}
			}
		}
	}
}

// Bipartite complete blocks of different sizes: outputs within blocks only,
// witness counts equal to block widths.
func TestTortureBlocks(t *testing.T) {
	var ps []relation.Pair
	yBase := int32(0)
	xBase := int32(0)
	blocks := []struct{ xs, ys int32 }{{3, 40}, {25, 2}, {10, 10}}
	for _, b := range blocks {
		for x := int32(0); x < b.xs; x++ {
			for y := int32(0); y < b.ys; y++ {
				ps = append(ps, relation.Pair{X: xBase + x, Y: yBase + y})
			}
		}
		xBase += b.xs
		yBase += b.ys
	}
	r := relation.FromPairs("blocks", ps)
	want := bruteCounts(r, r)
	got := countsToMap(TwoPathCounts(r, r, Options{Delta1: 5, Delta2: 5, Workers: 3}, true))
	if len(got) != len(want) {
		t.Fatalf("%d pairs, want %d", len(got), len(want))
	}
	// Spot-check: pairs inside block 0 have count 40.
	if got[[2]int32{0, 1}] != 40 {
		t.Fatalf("block-0 pair count = %d, want 40", got[[2]int32{0, 1}])
	}
	if got[[2]int32{3, 4}] != 2 {
		t.Fatalf("block-1 pair count = %d, want 2", got[[2]int32{3, 4}])
	}
}

// Asymmetric relations: R tiny, S huge (and vice versa) — checks the
// NR ≠ NS handling of thresholds and matrix dimensions.
func TestTortureAsymmetric(t *testing.T) {
	rng := rand.New(rand.NewSource(222))
	small := skewedRel(rng, "small", 40, 5, 10)
	big := skewedRel(rng, "big", 4000, 300, 10)
	for _, pair := range [][2]*relation.Relation{{small, big}, {big, small}} {
		want := bruteCounts(pair[0], pair[1])
		got := countsToMap(TwoPathCounts(pair[0], pair[1], Options{Delta1: 3, Delta2: 3}, true))
		if len(got) != len(want) {
			t.Fatalf("asymmetric: %d pairs, want %d", len(got), len(want))
		}
		for p, c := range want {
			if got[p] != c {
				t.Fatalf("asymmetric pair %v: %d, want %d", p, got[p], c)
			}
		}
	}
}

// Star with a relation that has a single tuple: output collapses through
// the bottleneck.
func TestTortureStarBottleneck(t *testing.T) {
	rng := rand.New(rand.NewSource(223))
	wide := skewedRel(rng, "wide", 300, 30, 10)
	bottleneck := relation.FromPairs("b", []relation.Pair{{X: 99, Y: 5}})
	rels := []*relation.Relation{wide, bottleneck, wide}
	got := StarMM(rels, Options{Delta1: 2, Delta2: 2})
	for _, xs := range got {
		if xs[1] != 99 {
			t.Fatalf("bottleneck variable must be 99, got %v", xs)
		}
	}
	// Everything must join through y=5 only.
	wideAt5 := wide.ByY().Lookup(5)
	want := len(wideAt5) * len(wideAt5)
	if len(got) != want {
		t.Fatalf("bottleneck star = %d tuples, want %d", len(got), want)
	}
}

// TestTwoPathGroupBy checks the group-by's distinct counts across threshold
// settings and worker counts on an instance whose narrow z-domain makes
// bitmap rows of the dense x values.
func TestTwoPathGroupBy(t *testing.T) {
	rng := rand.New(rand.NewSource(225))
	r := skewedRel(rng, "R", 600, 50, 30)
	s := skewedRel(rng, "S", 600, 50, 30)
	wantDistinct := map[int32]int64{}
	for p := range bruteCounts(r, s) {
		wantDistinct[p[0]]++
	}
	for _, d := range []int{1, 4, 1000} {
		if !slices.Contains(denseXs(newTwoPathCtxParallel(r, s, d, d, 1, nil)), true) {
			t.Fatalf("d=%d: no x row is built as a bitmap", d)
		}
		for _, workers := range []int{1, 2, 4} {
			groups := TwoPathGroupBy(r, s, Options{Delta1: d, Delta2: d, Workers: workers})
			if len(groups) != len(wantDistinct) {
				t.Fatalf("d=%d workers=%d: %d groups, want %d", d, workers, len(groups), len(wantDistinct))
			}
			for _, g := range groups {
				if g.Distinct != wantDistinct[g.X] {
					t.Fatalf("d=%d workers=%d: group %d distinct=%d, want %d", d, workers, g.X, g.Distinct, wantDistinct[g.X])
				}
			}
		}
	}
}

func TestTwoPathGroupByEmpty(t *testing.T) {
	e := relation.FromPairs("E", nil)
	if got := TwoPathGroupBy(e, e, Options{Delta1: 1, Delta2: 1}); len(got) != 0 {
		t.Fatalf("group-by on empty = %v", got)
	}
}

// Thresholds larger than any degree push everything through the light path;
// thresholds of 1 with all degrees > 1 push everything through the matrix.
// Both must agree with each other.
func TestTortureExtremesAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(224))
	// All degrees ≥ 2 by construction.
	var ps []relation.Pair
	for x := int32(0); x < 60; x++ {
		for k := 0; k < 3; k++ {
			ps = append(ps, relation.Pair{X: x, Y: int32((int(x) + k*7) % 40)})
		}
	}
	for y := int32(0); y < 40; y++ {
		ps = append(ps, relation.Pair{X: int32(60 + y%3), Y: y})
	}
	r := relation.FromPairs("ext", ps)
	allLight := countsToMap(TwoPathCounts(r, r, Options{Delta1: 10000, Delta2: 10000}, true))
	allHeavy := countsToMap(TwoPathCounts(r, r, Options{Delta1: 1, Delta2: 1}, true))
	if len(allLight) != len(allHeavy) {
		t.Fatalf("light-only %d pairs, heavy-routed %d", len(allLight), len(allHeavy))
	}
	for p, c := range allLight {
		if allHeavy[p] != c {
			t.Fatalf("pair %v: light %d, heavy %d", p, c, allHeavy[p])
		}
	}
	_ = rng
}
