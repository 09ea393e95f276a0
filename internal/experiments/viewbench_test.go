package experiments

import (
	"encoding/json"
	"testing"
)

// TestCompareViewSnapshotsGatesOnSpeedup: the gate reads the in-process
// recompute ÷ maintain ratio, so a snapshot taken on a uniformly slower
// machine passes, and one whose maintenance alone got slower fails.
func TestCompareViewSnapshotsGatesOnSpeedup(t *testing.T) {
	snap := func(scale float64, maintain, recompute int64) []byte {
		b, err := json.Marshal(ViewSnapshot{Scale: scale, Benchmarks: map[string]ViewBench{
			"v":     {MaintainNs: maintain, RecomputeNs: recompute, Speedup: float64(recompute) / float64(maintain)},
			"other": {MaintainNs: 100, RecomputeNs: 1000, Speedup: 10},
		}})
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	base := snap(0.2, 100, 1000)
	for _, tc := range []struct {
		name    string
		current []byte
		regs    int
	}{
		{"same", snap(0.2, 100, 1000), 0},
		{"whole box 40% slower", snap(0.2, 140, 1400), 0},
		{"maintenance 9% slower", snap(0.2, 109, 1000), 0},
		{"maintenance 12% slower", snap(0.2, 112, 1000), 1},
		{"recompute alone 2× faster", snap(0.2, 100, 500), 1},
		{"maintenance faster", snap(0.2, 50, 1000), 0},
	} {
		regs, err := CompareViewSnapshots(base, tc.current, 0.10)
		if err != nil {
			t.Fatal(err)
		}
		if len(regs) != tc.regs {
			t.Fatalf("%s: %d regressions %v, want %d", tc.name, len(regs), regs, tc.regs)
		}
		if len(regs) == 1 && (regs[0].Name != "v" || regs[0].String() == "") {
			t.Fatalf("%s: regression %+v", tc.name, regs[0])
		}
	}
	if _, err := CompareViewSnapshots(base, snap(0.5, 100, 1000), 0.10); err == nil {
		t.Fatal("snapshots at different scales compared")
	}
}

// TestMedianRun: the kept run is the one with the median speedup — the
// lower middle one for an even count — with its own times, and Reps counts
// the runs.
func TestMedianRun(t *testing.T) {
	run := func(maintain, recompute int64) ViewBench {
		return ViewBench{MaintainNs: maintain, RecomputeNs: recompute, Speedup: float64(recompute) / float64(maintain)}
	}
	odd := []ViewBench{run(10, 90), run(10, 20), run(1, 1000), run(10, 50), run(10, 40)}
	if got := medianRun(odd); got.Speedup != 5 || got.MaintainNs != 10 || got.RecomputeNs != 50 || got.Reps != 5 {
		t.Fatalf("odd count: median run %+v, want the 5× run of 5", got)
	}
	even := []ViewBench{run(10, 90), run(10, 20), run(10, 50), run(10, 40)}
	if got := medianRun(even); got.Speedup != 4 || got.Reps != 4 {
		t.Fatalf("even count: median run %+v, want the lower middle 4× run of 4", got)
	}
}
