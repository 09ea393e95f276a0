// Package bsi implements the boolean set intersection workload of Sections
// 3.3 and 7.5: answering a stream of queries Qab() = R(a,y), S(b,y) — "do
// sets a and b intersect?" — arriving at B queries per second.
//
// Instead of answering each query with a separate O(N) scan, requests are
// batched: a batch of C queries forms a relation T(x, z), the inputs are
// filtered to the constants appearing in the batch, and the whole batch is
// answered with one join-project evaluation (Algorithm 1), exactly as the
// paper's experiments do. The average per-query delay is the batch fill
// time C/B plus the batch computation time, which the paper's Proposition 2
// analyzes.
package bsi

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"time"

	"repro/internal/joinproject"
	"repro/internal/relation"
)

// Query is one boolean intersection request: do sets A (in R) and B (in S)
// share an element?
type Query struct {
	A, B int32
}

// Options configures batch evaluation.
type Options struct {
	// UseMM selects Algorithm 1 (true) or the combinatorial Non-MM join.
	UseMM bool
	// Workers bounds parallelism (≤ 0: all cores).
	Workers int
}

// AnswerSingle answers one query with a direct sorted-list intersection —
// the per-request baseline of Example 5.
func AnswerSingle(r, s *relation.Relation, q Query) bool {
	return relation.IntersectCount(r.ByX().Lookup(q.A), s.ByX().Lookup(q.B)) > 0
}

// AnswerBatch answers a batch of queries at once: R and S are filtered to
// the constants of the batch, the filtered 2-path join is evaluated, and the
// result is intersected with the batch (the query Qbatch(x,z) =
// R(x,y), S(z,y), T(x,z) of Section 3.3). The join stays in index form: a
// query's answer is a binary search for B's position in the sorted group of
// A's position. The combinatorial mode runs the same kernel with every value
// light (pure WCOJ expansion with dedup). Returns one answer per query, in
// batch order.
func AnswerBatch(r, s *relation.Relation, batch []Query, opt Options) []bool {
	if len(batch) == 0 {
		return nil
	}
	as := make([]int32, 0, len(batch))
	bs := make([]int32, 0, len(batch))
	for _, q := range batch {
		as = append(as, q.A)
		bs = append(bs, q.B)
	}
	rf := r.RestrictXSet(as)
	sf := s.RestrictXSet(bs)
	jopt := joinproject.Options{Workers: opt.Workers}
	if !opt.UseMM {
		jopt = jopt.AllLight(rf, sf)
	}
	g := joinproject.TwoPathGroups(rf, sf, jopt, true)
	g.Sort()
	rx, sx := rf.ByX(), sf.ByX()
	out := make([]bool, len(batch))
	for i, q := range batch {
		xp, zp := rx.Pos(q.A), sx.Pos(q.B)
		if xp >= 0 && zp >= 0 {
			_, out[i] = slices.BinarySearch(g.ZPos[g.Off[xp]:g.Off[xp+1]], int32(zp))
		}
	}
	return out
}

// RandomWorkload samples n queries uniformly over the set ids of R and S,
// as in Section 7.5 ("sampling each set pair uniformly at random").
func RandomWorkload(r, s *relation.Relation, n int, seed int64) []Query {
	rng := rand.New(rand.NewSource(seed))
	rx, sx := r.ByX(), s.ByX()
	if rx.NumKeys() == 0 || sx.NumKeys() == 0 {
		return nil
	}
	out := make([]Query, n)
	for i := range out {
		out[i] = Query{
			A: rx.Key(rng.Intn(rx.NumKeys())),
			B: sx.Key(rng.Intn(sx.NumKeys())),
		}
	}
	return out
}

// DelayResult summarizes a batching simulation at one batch size.
type DelayResult struct {
	BatchSize int
	// ComputeTime is the mean wall-clock time to answer one batch.
	ComputeTime time.Duration
	// AvgDelay = fill time (C/B) + ComputeTime, the Section-7.5 metric.
	AvgDelay time.Duration
	// UnitsNeeded is the number of parallel processing units required to
	// keep up with the arrival rate: ceil(B·ComputeTime/C).
	UnitsNeeded int
}

// String renders one average-delay series point.
func (d DelayResult) String() string {
	return fmt.Sprintf("C=%d compute=%v delay=%v units=%d",
		d.BatchSize, d.ComputeTime.Round(time.Microsecond), d.AvgDelay.Round(time.Microsecond), d.UnitsNeeded)
}

// SimulateDelay measures the average delay at arrival rate rateB (queries
// per second) and the given batch size, averaging computeover numBatches
// batches of a uniformly random workload.
func SimulateDelay(r, s *relation.Relation, rateB float64, batchSize, numBatches int, opt Options, seed int64) DelayResult {
	if numBatches < 1 {
		numBatches = 1
	}
	var total time.Duration
	for i := 0; i < numBatches; i++ {
		batch := RandomWorkload(r, s, batchSize, seed+int64(i))
		start := time.Now()
		_ = AnswerBatch(r, s, batch, opt)
		total += time.Since(start)
	}
	compute := total / time.Duration(numBatches)
	fill := time.Duration(float64(batchSize) / rateB * float64(time.Second))
	units := int(math.Ceil(rateB * compute.Seconds() / float64(batchSize)))
	if units < 1 {
		units = 1
	}
	return DelayResult{
		BatchSize:   batchSize,
		ComputeTime: compute,
		AvgDelay:    fill + compute,
		UnitsNeeded: units,
	}
}

// Prop2Model returns the Proposition-2 predictions for input size n and
// arrival rate b under ω = 2: batch size C = (B·N)^{3/5}, average latency
// Θ(N^{3/5}/B^{2/5}) and machine count (B·N)^{3/5}. Used to sanity-check
// the shape of the measured curves.
func Prop2Model(n, b float64) (batchSize, latency, machines float64) {
	batchSize = math.Pow(b*n, 3.0/5.0)
	latency = math.Pow(n, 3.0/5.0) / math.Pow(b, 2.0/5.0)
	machines = math.Pow(b*n, 3.0/5.0)
	return batchSize, latency, machines
}
