// Package joinproject implements the paper's primary contribution: output-
// sensitive evaluation of star join queries with projection, combining
// worst-case optimal join processing for low-degree ("light") values with
// matrix multiplication for high-degree ("heavy") values.
//
// The 2-path query ÜQ(x,z) = R(x,y), S(z,y) is evaluated by Algorithm 1 of
// the paper: relations are partitioned by the degree thresholds Δ1 (on the
// join variable y) and Δ2 (on the projected variables x and z); tuples with
// a light value are processed by an indexed join with constant-time
// deduplication, and the residual all-heavy subrelations are multiplied as
// bit-packed adjacency matrices. The star query Q★k generalizes this with a
// three-way partition per relation and grouped rectangular matrices
// (Section 3.2). The combinatorial variants of both (no matrix
// multiplication, Lemma 2) are implemented alongside as the paper's
// Non-MMJoin baseline.
package joinproject

import (
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/bitset"
	"repro/internal/matrix"
	"repro/internal/par"
	"repro/internal/relation"
)

// DedupMode selects the light-part deduplication strategy of Section 6.
type DedupMode int

const (
	// DedupAuto picks DedupStamp for compact z-domains and DedupSort when
	// the stamp vector would not fit caches comfortably — "the best of the
	// two strategies, depending on the number of elements that need to be
	// deduplicated and the domain size".
	DedupAuto DedupMode = iota
	// DedupStamp uses the reusable per-x dedup vector over dom(z) (the
	// paper's code snippet), with an epoch trick instead of clearing.
	DedupStamp
	// DedupSort appends all reachable z values and sorts+uniques per x.
	DedupSort
)

// Options configures a join-project evaluation.
type Options struct {
	// Delta1 is the degree threshold on the join variable y; Delta2 is the
	// threshold on the projected variables. Values ≤ 0 select the paper's
	// closed-form thresholds (Section 3.1) from the output-size estimate.
	Delta1, Delta2 int
	// Workers bounds the parallelism; ≤ 0 uses all cores.
	Workers int
	// Dedup selects the light-part deduplication strategy.
	Dedup DedupMode
	// Stop, when non-nil, is polled at block boundaries of the evaluation
	// loops and inside the matrix kernels; a true return abandons the
	// remaining work (the output is then incomplete). Callers wire a
	// context-cancellation check here so a deadline interrupts a
	// long-running join instead of waiting out the full sweep.
	Stop func() bool
}

// PairCount is one projected output pair together with its witness count
// |{y : (X,y) ∈ R ∧ (Z,y) ∈ S}|.
type PairCount struct {
	X, Z  int32
	Count int32
}

// normalize fills in default thresholds.
func (o Options) normalize(r, s *relation.Relation) Options {
	if o.Delta1 <= 0 || o.Delta2 <= 0 {
		d1, d2 := HeuristicThresholds(r, s)
		if o.Delta1 <= 0 {
			o.Delta1 = d1
		}
		if o.Delta2 <= 0 {
			o.Delta2 = d2
		}
	}
	return o
}

// AllLight returns o with Δ1 = Δ2 = max(|R|,|S|)+1, above every possible
// degree, so every value is light: Algorithm 1 degenerates to the indexed
// join with constant-time stamp dedup — the plain WCOJ plan — and no matrix
// is built.
func (o Options) AllLight(r, s *relation.Relation) Options {
	t := max(r.Size(), s.Size()) + 1
	o.Delta1, o.Delta2 = t, t
	return o
}

// twoPathCtx holds the degree partition and the positional indexes the
// 2-path evaluation needs. Building it is the O(N log N) preprocessing pass.
type twoPathCtx struct {
	r, s   *relation.Relation
	d1, d2 int
	stop   func() bool // polled at block boundaries; nil = never stop

	sX, sY   *relation.Index
	zvals    []int32   // sX keys, ascending
	zDeg     []int32   // degree of each z position
	posByY   [][]int32 // per sY position: z positions (ascending)
	lightByY [][]int32 // per sY position, heavy y only: light z positions

	colOf []int32 // per sY position: heavy column id or -1
	ncols int

	heavyZPos []int32 // matrix row id → z position
	zRows     *matrix.BitMatrix

	rX        *relation.Index
	rYPos     [][]int32 // per rX position: sY positions of its y list (-1 if absent from S)
	numHeavyA int
}

// newTwoPathCtxParallel builds the positional indexes with the given degree
// of parallelism; construction is a per-key-independent transform, so it
// partitions coordination-free like the join itself. stop is polled between
// construction phases: preprocessing is O(N log N) and would otherwise be
// the one stretch a cancellation cannot interrupt. An early return leaves
// the context partially built, which is safe because the evaluation loops
// re-check stop before touching any of it.
func newTwoPathCtxParallel(r, s *relation.Relation, d1, d2, workers int, stop func() bool) *twoPathCtx {
	c := &twoPathCtx{r: r, s: s, d1: d1, d2: d2, stop: stop, sX: s.ByX(), sY: s.ByY(), rX: r.ByX()}
	halt := func() bool { return stop != nil && stop() }
	// rYPos must exist for the evaluation loops even on an abandoned build.
	c.rYPos = make([][]int32, c.rX.NumKeys())
	if halt() {
		return c
	}
	c.zvals = c.sX.Keys()
	c.zDeg = make([]int32, c.sX.NumKeys())
	for i := range c.zDeg {
		c.zDeg[i] = int32(c.sX.Degree(i))
	}
	if halt() {
		return c
	}

	// Heavy y columns: degree in S above Δ1.
	ny := c.sY.NumKeys()
	c.colOf = make([]int32, ny)
	for i := 0; i < ny; i++ {
		if c.sY.Degree(i) > d1 {
			c.colOf[i] = int32(c.ncols)
			c.ncols++
		} else {
			c.colOf[i] = -1
		}
	}

	// Positional z lists per y, plus the light-z sublists under heavy ys.
	c.posByY = make([][]int32, ny)
	c.lightByY = make([][]int32, ny)
	par.For(ny, workers, func(i int) {
		list := c.sY.List(i)
		pos := make([]int32, len(list))
		for j, z := range list {
			pos[j] = int32(c.sX.Pos(z))
		}
		c.posByY[i] = pos
		if c.colOf[i] >= 0 {
			var light []int32
			for _, zp := range pos {
				if int(c.zDeg[zp]) <= d2 {
					light = append(light, zp)
				}
			}
			c.lightByY[i] = light
		}
	})
	if halt() {
		return c
	}

	// Heavy z rows: z degree above Δ2 and at least one heavy y neighbour.
	if c.ncols > 0 {
		for zp := 0; zp < c.sX.NumKeys(); zp++ {
			if int(c.zDeg[zp]) <= d2 {
				continue
			}
			hasHeavy := false
			for _, y := range c.sX.List(zp) {
				if yp := c.sY.Pos(y); yp >= 0 && c.colOf[yp] >= 0 {
					hasHeavy = true
					break
				}
			}
			if hasHeavy {
				c.heavyZPos = append(c.heavyZPos, int32(zp))
			}
		}
		c.zRows = matrix.NewBitMatrix(len(c.heavyZPos), c.ncols)
		for row, zp := range c.heavyZPos {
			for _, y := range c.sX.List(int(zp)) {
				if yp := c.sY.Pos(y); yp >= 0 {
					if col := c.colOf[yp]; col >= 0 {
						c.zRows.Set(row, int(col))
					}
				}
			}
		}
	}

	if halt() {
		return c
	}

	// R-side positional lists into sY.
	par.For(c.rX.NumKeys(), workers, func(i int) {
		list := c.rX.List(i)
		pos := make([]int32, len(list))
		for j, y := range list {
			pos[j] = int32(c.sY.Pos(y))
		}
		c.rYPos[i] = pos
	})
	for i := 0; i < c.rX.NumKeys(); i++ {
		if c.rX.Degree(i) > d2 {
			c.numHeavyA++
		}
	}
	return c
}

// dedupSortThreshold is the z-domain size above which DedupAuto switches
// from the stamp vector to append+sort (the stamp array stops fitting in
// cache).
const dedupSortThreshold = 1 << 20

// resolveDedup maps DedupAuto to a concrete strategy for this instance.
func (c *twoPathCtx) resolveDedup(mode DedupMode) bool {
	switch mode {
	case DedupSort:
		return true
	case DedupStamp:
		return false
	default:
		return c.sX.NumKeys() > dedupSortThreshold
	}
}

// run evaluates the partitioned join. If counting is true, sink receives
// exact witness counts; otherwise it receives each distinct pair once with
// count 1. sink is invoked from multiple goroutines when workers > 1, with
// all pairs of one x value delivered from a single goroutine.
func (c *twoPathCtx) run(workers int, counting bool, sink func(x, z, count int32)) {
	c.runMode(workers, true, counting, false, func(_ int, x, z, n int32) { sink(x, z, n) })
}

// runMode additionally selects the heavy residual and the light-part dedup
// strategy. useMM evaluates the all-heavy residual (category 4) as rows of
// the bit-packed product; !useMM is the combinatorial Lemma-2 variant —
// identical partitioning, with the residual computed by pairwise
// sorted-list intersection instead. dedupSort applies to set semantics
// only; the counting variant needs random-access accumulation and always
// uses the stamp vector. The sink receives the worker (chunk) index so
// callers can keep coordination-free per-worker buffers — the Section-6
// parallelization pattern.
func (c *twoPathCtx) runMode(workers int, useMM, counting, dedupSort bool, sink func(worker int, x, z, count int32)) {
	nx := c.rX.NumKeys()
	nw := par.Workers(workers)
	if nw > nx {
		nw = nx
	}
	if nw < 1 {
		return
	}
	var zCols [][]int32
	if !useMM {
		zCols = c.heavyZCols()
	}
	// Dynamic block scheduling: heavy x values cluster, so static chunking
	// skews badly; workers pull fixed-size blocks from a shared cursor
	// instead (still coordination-free within a block).
	var cursor atomic.Int64
	var wg sync.WaitGroup
	for chunk := 0; chunk < nw; chunk++ {
		wg.Add(1)
		go func(chunk int) {
			defer wg.Done()
			st := blockState{zCols: zCols}
			if !dedupSort || counting {
				st.stamp = make([]int32, c.sX.NumKeys())
			}
			if counting {
				st.cnt = make([]int32, c.sX.NumKeys())
			}
			if useMM {
				st.aRow = bitset.New(c.ncols)
			}
			for {
				blockLo := int(cursor.Add(schedBlock) - schedBlock)
				if blockLo >= nx {
					return
				}
				if c.stop != nil && c.stop() {
					return
				}
				blockHi := blockLo + schedBlock
				if blockHi > nx {
					blockHi = nx
				}
				c.processBlock(blockLo, blockHi, chunk, counting, dedupSort, sink, &st)
			}
		}(chunk)
	}
	wg.Wait()
}

// heavyZCols returns the rows of zRows as ascending column lists, the form
// the list-intersection residual consumes.
func (c *twoPathCtx) heavyZCols() [][]int32 {
	zCols := make([][]int32, len(c.heavyZPos))
	for j := range zCols {
		c.zRows.Row(j).ForEach(func(col int) { zCols[j] = append(zCols[j], int32(col)) })
	}
	return zCols
}

// blockState is one worker's scratch, reused across the blocks it pulls.
// The heavy residual mode is fixed per call by which operand form is
// present: aRow (the current heavy x as a bit row, multiplied against
// zRows) or zCols/aCols (the same matrix and row as sorted column lists,
// intersected pairwise).
type blockState struct {
	stamp, cnt    []int32
	touched, zbuf []int32

	aRow *bitset.Bitset

	zCols [][]int32
	aCols []int32
}

// schedBlock is the dynamic scheduling granularity (x positions per pull).
const schedBlock = 64

// processBlock evaluates x positions [lo, hi) with the worker-local state.
func (c *twoPathCtx) processBlock(lo, hi, chunk int, counting, dedupSort bool,
	sink func(worker int, x, z, count int32), st *blockState) {
	stamp, cnt, aRow, zCols := st.stamp, st.cnt, st.aRow, st.zCols
	touched, zbuf, aCols := st.touched, st.zbuf, st.aCols
	defer func() { st.touched, st.zbuf, st.aCols = touched, zbuf, aCols }()
	useMM := aRow != nil
	for i := lo; i < hi; i++ {
		a := c.rX.Key(i)
		epoch := int32(i + 1)
		aHeavy := c.rX.Degree(i) > c.d2
		if aHeavy && c.ncols > 0 {
			// This x's heavy columns, in the residual's operand form.
			if useMM {
				aRow.Reset()
				for _, yp := range c.rYPos[i] {
					if yp >= 0 {
						if col := c.colOf[yp]; col >= 0 {
							aRow.Set(int(col))
						}
					}
				}
			} else {
				aCols = aCols[:0]
				for _, yp := range c.rYPos[i] {
					if yp >= 0 {
						if col := c.colOf[yp]; col >= 0 {
							aCols = append(aCols, col)
						}
					}
				}
				slices.Sort(aCols)
			}
		}
		touched = touched[:0]
		zbuf = zbuf[:0]
		for _, yp := range c.rYPos[i] {
			if yp < 0 {
				continue
			}
			var cand []int32
			if c.colOf[yp] < 0 || !aHeavy {
				// Light y (category 1) or heavy y with light x
				// (category 2): expand every partner z.
				cand = c.posByY[yp]
			} else {
				// Heavy y and heavy x: only light z partners
				// (category 3); heavy z is the matrix's job.
				cand = c.lightByY[yp]
			}
			switch {
			case counting:
				for _, zp := range cand {
					if stamp[zp] != epoch {
						stamp[zp] = epoch
						cnt[zp] = 1
						touched = append(touched, zp)
					} else {
						cnt[zp]++
					}
				}
			case dedupSort:
				zbuf = append(zbuf, cand...)
			default:
				for _, zp := range cand {
					if stamp[zp] != epoch {
						stamp[zp] = epoch
						sink(chunk, a, c.zvals[zp], 1)
					}
				}
			}
		}
		if aHeavy && c.zRows != nil && c.zRows.Rows > 0 {
			// Category 4: heavy x against every heavy z — one row of the
			// matrix product. The residual is chosen outside the pair
			// loop, so each mode keeps its own tight loop.
			hit := func(j, n int) {
				zp := c.heavyZPos[j]
				switch {
				case counting:
					if stamp[zp] != epoch {
						stamp[zp] = epoch
						cnt[zp] = int32(n)
						touched = append(touched, zp)
					} else {
						cnt[zp] += int32(n)
					}
				case dedupSort:
					zbuf = append(zbuf, zp)
				default:
					if stamp[zp] != epoch {
						stamp[zp] = epoch
						sink(chunk, a, c.zvals[zp], 1)
					}
				}
			}
			if useMM {
				for j := 0; j < c.zRows.Rows; j++ {
					if n := aRow.AndCount(c.zRows.Row(j)); n != 0 {
						hit(j, n)
					}
				}
			} else {
				for j, zc := range zCols {
					if n := relation.IntersectCount(aCols, zc); n != 0 {
						hit(j, n)
					}
				}
			}
		}
		if counting {
			for _, zp := range touched {
				sink(chunk, a, c.zvals[zp], cnt[zp])
			}
		} else if dedupSort && len(zbuf) > 0 {
			// Section-6 alternative: append all reachable z values,
			// then sort + unique.
			slices.Sort(zbuf)
			for j, zp := range zbuf {
				if j == 0 || zp != zbuf[j-1] {
					sink(chunk, a, c.zvals[zp], 1)
				}
			}
		}
	}
}

// pairCollector gathers output pairs into coordination-free per-worker
// buffers, concatenated in chunk order at the end (deterministic for a
// fixed worker count).
type pairCollector struct {
	slots [][][2]int32
}

func newPairCollector(chunks int) *pairCollector {
	return &pairCollector{slots: make([][][2]int32, chunks)}
}

func (pc *pairCollector) sink(worker int, x, z, _ int32) {
	pc.slots[worker] = append(pc.slots[worker], [2]int32{x, z})
}

func (pc *pairCollector) pairs() [][2]int32 {
	total := 0
	for _, s := range pc.slots {
		total += len(s)
	}
	out := make([][2]int32, 0, total)
	for _, s := range pc.slots {
		out = append(out, s...)
	}
	return out
}

type countCollector struct {
	slots [][]PairCount
}

func newCountCollector(chunks int) *countCollector {
	return &countCollector{slots: make([][]PairCount, chunks)}
}

func (cc *countCollector) sink(worker int, x, z, n int32) {
	cc.slots[worker] = append(cc.slots[worker], PairCount{X: x, Z: z, Count: n})
}

func (cc *countCollector) out() []PairCount {
	total := 0
	for _, s := range cc.slots {
		total += len(s)
	}
	out := make([]PairCount, 0, total)
	for _, s := range cc.slots {
		out = append(out, s...)
	}
	return out
}

// TwoPathMM evaluates π_{x,z}(R(x,y) ⋈ S(z,y)) with Algorithm 1 and returns
// the distinct output pairs (order unspecified).
func TwoPathMM(r, s *relation.Relation, opt Options) [][2]int32 {
	opt = opt.normalize(r, s)
	c := newTwoPathCtxParallel(r, s, opt.Delta1, opt.Delta2, opt.Workers, opt.Stop)
	pc := newPairCollector(par.Workers(opt.Workers))
	c.runMode(opt.Workers, true, false, c.resolveDedup(opt.Dedup), pc.sink)
	return pc.pairs()
}

// TwoPathMMCounts evaluates the counting 2-path: every distinct output pair
// with its exact witness count. The light/heavy witness categories of
// Algorithm 1 partition the witness space, so counts are exact.
func TwoPathMMCounts(r, s *relation.Relation, opt Options) []PairCount {
	opt = opt.normalize(r, s)
	c := newTwoPathCtxParallel(r, s, opt.Delta1, opt.Delta2, opt.Workers, opt.Stop)
	cc := newCountCollector(par.Workers(opt.Workers))
	c.runMode(opt.Workers, true, true, false, cc.sink)
	return cc.out()
}

// TwoPathMMVisit streams each distinct output pair and its witness count to
// visit. visit is called concurrently when opt.Workers permits; it must be
// safe for concurrent use.
func TwoPathMMVisit(r, s *relation.Relation, opt Options, visit func(x, z, count int32)) {
	opt = opt.normalize(r, s)
	c := newTwoPathCtxParallel(r, s, opt.Delta1, opt.Delta2, opt.Workers, opt.Stop)
	c.run(opt.Workers, true, visit)
}

// TwoPathNonMM is the combinatorial Lemma-2 baseline: the same degree
// partitioning, with the heavy residual computed by pairwise sorted-list
// intersections instead of matrix multiplication.
func TwoPathNonMM(r, s *relation.Relation, opt Options) [][2]int32 {
	opt = opt.normalize(r, s)
	c := newTwoPathCtxParallel(r, s, opt.Delta1, opt.Delta2, opt.Workers, opt.Stop)
	pc := newPairCollector(par.Workers(opt.Workers))
	c.runMode(opt.Workers, false, false, false, pc.sink)
	return pc.pairs()
}

// TwoPathNonMMCounts is the counting variant of TwoPathNonMM.
func TwoPathNonMMCounts(r, s *relation.Relation, opt Options) []PairCount {
	opt = opt.normalize(r, s)
	c := newTwoPathCtxParallel(r, s, opt.Delta1, opt.Delta2, opt.Workers, opt.Stop)
	cc := newCountCollector(par.Workers(opt.Workers))
	c.runMode(opt.Workers, false, true, false, cc.sink)
	return cc.out()
}

// paddedCount is a cache-line-padded counter: per-worker tallies would
// otherwise false-share one line and serialize the workers.
type paddedCount struct {
	n int64
	_ [7]int64
}

// TwoPathSize returns |OUT| — the number of distinct output pairs — without
// materializing them.
func TwoPathSize(r, s *relation.Relation, opt Options) int64 {
	opt = opt.normalize(r, s)
	c := newTwoPathCtxParallel(r, s, opt.Delta1, opt.Delta2, opt.Workers, opt.Stop)
	counts := make([]paddedCount, par.Workers(opt.Workers))
	c.runMode(opt.Workers, true, false, c.resolveDedup(opt.Dedup), func(w int, _, _, _ int32) { counts[w].n++ })
	var total int64
	for _, pc := range counts {
		total += pc.n
	}
	return total
}
