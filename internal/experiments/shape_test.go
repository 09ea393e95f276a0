package experiments

import (
	"testing"
	"time"

	"repro/internal/baseline"
	"repro/internal/dataset"
	"repro/internal/joinproject"
	"repro/internal/optimizer"
	"repro/internal/relation"
	"repro/internal/ssj"
)

// TestShapeMMBeatsFullJoinOnDense turns the paper's headline claim into an
// executable check: on the dense Words shape, the optimizer-driven MMJoin
// must beat the full-join-then-dedup plan (MySQL-style) outright.
func TestShapeMMBeatsFullJoinOnDense(t *testing.T) {
	if testing.Short() {
		t.Skip("shape test")
	}
	r := getDataset("Words", 0.25)
	opt := optimizer.New()

	timeOf := func(fn func()) time.Duration {
		start := time.Now()
		fn()
		return time.Since(start)
	}
	mm := timeOf(func() { _, _ = runMMJoin(opt, r, 1) })
	mysql := timeOf(func() { _ = baseline.SortMergeJoinDedup(r, r) })
	if mm >= mysql {
		t.Errorf("dense shape: MMJoin %v not faster than sort-merge+dedup %v", mm, mysql)
	}
}

// TestShapeOptimizerFallsBackOnSparse: on RoadNet and DBLP the optimizer
// must pick the plain WCOJ plan, exactly as the paper reports for Figure 4a.
func TestShapeOptimizerFallsBackOnSparse(t *testing.T) {
	if testing.Short() {
		t.Skip("shape test")
	}
	opt := optimizer.New()
	for _, name := range []string{"RoadNet", "DBLP"} {
		r := getDataset(name, 0.25)
		dec := opt.PlanTwoPath(r, r, joinproject.Options{Workers: 1}, "")
		if !dec.UseWCOJ() {
			t.Errorf("%s: optimizer chose partitioning (outJoin=%d, N=%d), paper expects fallback",
				name, dec.OutJoin, r.Size())
		}
	}
	// ... and must NOT fall back on the dense shapes.
	for _, name := range []string{"Protein", "Image"} {
		r := getDataset(name, 0.25)
		dec := opt.PlanTwoPath(r, r, joinproject.Options{Workers: 1}, "")
		if dec.UseWCOJ() {
			t.Errorf("%s: optimizer fell back to WCOJ (outJoin=%d, N=%d), paper expects partitioning",
				name, dec.OutJoin, r.Size())
		}
	}
}

// TestShapeFig8Monotone: each SizeAware++ optimization level must not be
// slower than the previous one on the Words ablation (the Figure-8 shape).
func TestShapeFig8Monotone(t *testing.T) {
	if testing.Short() {
		t.Skip("shape test")
	}
	r := ssjDataset("Words", 0.25)
	const c = 2
	timeOf := func(opt ssj.PPOptions) time.Duration {
		start := time.Now()
		_ = ssj.SizeAwarePP(r, c, opt)
		return time.Since(start)
	}
	noop := timeOf(ssj.PPOptions{})
	prefix := timeOf(ssj.PPOptions{Light: true, Heavy: true, Prefix: true})
	// Generous slack: the full ablation is asserted only end-to-end, since
	// individual levels can jitter at small scale.
	if float64(prefix) > 0.8*float64(noop) {
		t.Errorf("Prefix configuration (%v) did not clearly beat NO-OP (%v)", prefix, noop)
	}
}

// TestShapeMMJoinOutputSensitive: on the Example-1 community graph, where
// |OUT⋈| ≫ |OUT|, the partitioned algorithm must beat the full-join+dedup
// plan — the situation the paper's introduction motivates.
func TestShapeMMJoinOutputSensitive(t *testing.T) {
	if testing.Short() {
		t.Skip("shape test")
	}
	g := dataset.Community(120000, 10, 3)
	full := relation.FullJoinSize(g, g)
	// |OUT| without storing the pairs: the sum of the group-by's counts.
	size := func() (n int64) {
		for _, gc := range joinproject.TwoPathGroupBy(g, g, joinproject.Options{Workers: 1}) {
			n += gc.Distinct
		}
		return n
	}
	out := size()
	if full < 10*out {
		t.Skipf("community instance not duplicate-heavy enough: full=%d out=%d", full, out)
	}
	start := time.Now()
	_ = size()
	mm := time.Since(start)
	start = time.Now()
	_ = baseline.HashJoinDedup(g, g)
	hash := time.Since(start)
	if mm >= hash {
		t.Errorf("community graph: MMJoin %v not faster than hash-join+dedup %v (full=%d out=%d)",
			mm, hash, full, out)
	}
}
