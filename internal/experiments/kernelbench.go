package experiments

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"time"

	"repro/internal/matrix"
)

// KernelBench is one measured kernel data point, named after the go-test
// benchmark it mirrors so snapshots line up with `go test -bench` output.
type KernelBench struct {
	NsPerOp int64 `json:"ns_per_op"`
	Reps    int   `json:"reps"`
}

// KernelSnapshot is the machine-readable perf trajectory cmd/joinbench
// writes with -json: ns/op of MulBitCount on the Figure-3 matrix shapes.
// Later PRs diff these files to catch regressions.
type KernelSnapshot struct {
	GoOS       string                 `json:"goos"`
	GoArch     string                 `json:"goarch"`
	NumCPU     int                    `json:"num_cpu"`
	Timestamp  string                 `json:"timestamp"`
	Benchmarks map[string]KernelBench `json:"benchmarks"`
}

// kernelBudget bounds the per-benchmark measurement time; with warm-up plus
// at least three reps this keeps the full snapshot under ~10 s.
const kernelBudget = 300 * time.Millisecond

// measureKernel reports the fastest rep rather than the mean: scheduler and
// co-tenant interference only ever add time, so the minimum is the stable
// estimator of the kernel's true cost — which is what the CI regression gate
// needs to compare across runs without tripping on machine noise.
func measureKernel(fn func()) KernelBench {
	fn() // warm-up (also populates scratch pools)
	reps := 0
	best := int64(1<<63 - 1)
	start := time.Now()
	for time.Since(start) < kernelBudget || reps < 3 {
		t0 := time.Now()
		fn()
		if d := time.Since(t0).Nanoseconds(); d < best {
			best = d
		}
		reps++
	}
	return KernelBench{NsPerOp: best, Reps: reps}
}

// fig3BitPair reproduces the operand pattern of BenchmarkFig3a/3b.
func fig3BitPair(seed int64, n int) (*matrix.BitMatrix, *matrix.BitMatrix) {
	rng := rand.New(rand.NewSource(seed))
	a := matrix.NewBitMatrix(n, n)
	c := matrix.NewBitMatrix(n, n)
	for i := 0; i < n; i++ {
		for j := rng.Intn(3); j < n; j += 1 + rng.Intn(5) {
			a.Set(i, j)
			c.Set(i, (j+i)%n)
		}
	}
	return a, c
}

// Regression is one benchmark whose current ns/op exceeds the baseline by
// more than the tolerance.
type Regression struct {
	Name     string
	Baseline int64 // baseline ns/op
	Current  int64 // current ns/op
	Ratio    float64
}

// String renders the regression as one human-readable gate-failure line.
func (r Regression) String() string {
	return fmt.Sprintf("%s: %d → %d ns/op (%.1f%% slower)", r.Name, r.Baseline, r.Current, (r.Ratio-1)*100)
}

// CompareKernelSnapshots diffs two snapshot files and returns every
// benchmark present in both whose ns/op regressed by more than tol (0.10 =
// 10%). Benchmarks present in only one snapshot are ignored, so adding new
// kernels never fails the gate.
func CompareKernelSnapshots(baseline, current []byte, tol float64) ([]Regression, error) {
	var old, cur KernelSnapshot
	if err := json.Unmarshal(baseline, &old); err != nil {
		return nil, fmt.Errorf("baseline snapshot: %w", err)
	}
	if err := json.Unmarshal(current, &cur); err != nil {
		return nil, fmt.Errorf("current snapshot: %w", err)
	}
	var regs []Regression
	for name, ob := range old.Benchmarks {
		cb, ok := cur.Benchmarks[name]
		if !ok || ob.NsPerOp <= 0 || cb.NsPerOp <= 0 {
			continue
		}
		ratio := float64(cb.NsPerOp) / float64(ob.NsPerOp)
		if ratio > 1+tol {
			regs = append(regs, Regression{Name: name, Baseline: ob.NsPerOp, Current: cb.NsPerOp, Ratio: ratio})
		}
	}
	sort.Slice(regs, func(i, j int) bool { return regs[i].Ratio > regs[j].Ratio })
	return regs, nil
}

// KernelBenchSnapshot measures the Fig-3a/3b shapes and returns the
// marshaled snapshot.
func KernelBenchSnapshot() ([]byte, error) {
	snap := KernelSnapshot{
		GoOS:       runtime.GOOS,
		GoArch:     runtime.GOARCH,
		NumCPU:     runtime.NumCPU(),
		Timestamp:  time.Now().UTC().Format(time.RFC3339),
		Benchmarks: map[string]KernelBench{},
	}

	for _, n := range []int{512, 1024, 2048} {
		a, c := fig3BitPair(7, n)
		name := fmt.Sprintf("BenchmarkFig3a_MatMulSingleCore/n=%d", n)
		snap.Benchmarks[name] = measureKernel(func() { _ = matrix.MulBitCount(a, c, 1) })
	}

	{
		a, c := fig3BitPair(8, 2048)
		for _, cores := range []int{1, 2, 3, 4, 5} {
			name := fmt.Sprintf("BenchmarkFig3b_MatMulMultiCore/cores=%d", cores)
			snap.Benchmarks[name] = measureKernel(func() { _ = matrix.MulBitCount(a, c, cores) })
		}
	}

	return json.MarshalIndent(snap, "", "  ")
}
