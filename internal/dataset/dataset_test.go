package dataset

import (
	"strings"
	"testing"

	"repro/internal/relation"
)

func TestNamesAndByName(t *testing.T) {
	for _, n := range Names() {
		r, err := ByName(n, 0.1)
		if err != nil {
			t.Fatalf("ByName(%q): %v", n, err)
		}
		if r.Size() == 0 {
			t.Fatalf("dataset %q is empty", n)
		}
		if r.Name() != n {
			t.Fatalf("dataset name = %q, want %q", r.Name(), n)
		}
	}
	if _, err := ByName("nope", 1); err == nil {
		t.Fatal("expected error for unknown dataset")
	}
}

func TestDeterminism(t *testing.T) {
	for _, n := range Names() {
		a, _ := ByName(n, 0.1)
		b, _ := ByName(n, 0.1)
		if a.Size() != b.Size() {
			t.Fatalf("%s: sizes differ across runs: %d vs %d", n, a.Size(), b.Size())
		}
		ap, bp := a.Pairs(), b.Pairs()
		for i := range ap {
			if ap[i] != bp[i] {
				t.Fatalf("%s: pair %d differs: %v vs %v", n, i, ap[i], bp[i])
			}
		}
	}
}

func TestShapesMatchPaperQualitatively(t *testing.T) {
	scale := 0.5
	stats := map[string]relation.Stats{}
	for _, n := range Names() {
		r, _ := ByName(n, scale)
		stats[n] = r.Stats()
	}
	// Sparse shapes have small average set size.
	if stats["RoadNet"].AvgSetSize > 4 {
		t.Fatalf("RoadNet avg set size %.1f too large", stats["RoadNet"].AvgSetSize)
	}
	if stats["DBLP"].AvgSetSize > 40 {
		t.Fatalf("DBLP avg set size %.1f too large", stats["DBLP"].AvgSetSize)
	}
	// Dense shapes: average set covers a noticeable fraction of the domain.
	for _, n := range []string{"Jokes", "Protein", "Image"} {
		frac := stats[n].AvgSetSize / float64(stats[n].DomainSize)
		if frac < 0.02 {
			t.Fatalf("%s density %.4f too low for a dense shape", n, frac)
		}
	}
	// Image has very large sets on average (paper: avg 11.4K of dom 50K).
	// The minimum is no longer informative because a fraction of sets are
	// generated as subsets of earlier sets (containment structure).
	if f := stats["Image"].AvgSetSize / float64(stats["Image"].DomainSize); f < 0.1 {
		t.Fatalf("Image avg set fraction %.4f too low", f)
	}
	// Words has many more sets than Jokes (paper: 1M vs 70K).
	if stats["Words"].NumSets <= stats["Jokes"].NumSets {
		t.Fatal("Words should have more sets than Jokes")
	}
}

func TestScaleChangesSize(t *testing.T) {
	small, _ := ByName("DBLP", 0.05)
	big, _ := ByName("DBLP", 0.2)
	if big.Size() <= small.Size() {
		t.Fatalf("scale 0.2 size %d not larger than scale 0.05 size %d", big.Size(), small.Size())
	}
}

func TestCommunityShape(t *testing.T) {
	n := 2000
	r := Community(n, 4, 7)
	if r.Size() == 0 {
		t.Fatal("empty community graph")
	}
	// The projected 2-path output should be much smaller than the full join
	// (Example 1: |OUT⋈| = Θ(N^1.5), |OUT| = Θ(N)).
	full := relation.FullJoinSize(r, r)
	if full <= int64(r.Size()) {
		t.Fatalf("community full join %d not larger than input %d", full, r.Size())
	}
}

func TestSample(t *testing.T) {
	r, _ := ByName("Words", 0.2)
	s := Sample(r, 0.3, 1)
	if s.Size() == 0 || s.Size() >= r.Size() {
		t.Fatalf("sample size %d out of range (orig %d)", s.Size(), r.Size())
	}
	if Sample(r, 1.0, 1) != r {
		t.Fatal("frac >= 1 should return the original relation")
	}
	// Sampled tuples must come from the original.
	for _, p := range s.Pairs()[:10] {
		if !r.Contains(p.X, p.Y) {
			t.Fatalf("sample invented tuple %v", p)
		}
	}
}

func TestTable2Renders(t *testing.T) {
	s := Table2(0.05)
	for _, n := range Names() {
		if !strings.Contains(s, n) {
			t.Fatalf("Table2 output missing %s:\n%s", n, s)
		}
	}
}

func TestMinSizeRespectsDomain(t *testing.T) {
	// Tiny scale should not wedge generators whose min/max exceed the domain.
	for _, n := range Names() {
		r, err := ByName(n, 0.01)
		if err != nil || r.Size() == 0 {
			t.Fatalf("%s at tiny scale: err=%v size=%d", n, err, r.Size())
		}
	}
}
