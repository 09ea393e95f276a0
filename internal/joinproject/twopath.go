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
//
// # Positions, and the order of the output
//
// Both algorithms address values by their position in the operands' indexes
// (relation.Index.Pos) and never by hashing or searching them. The two-path
// kernel has two entry points, one per reading of Algorithm 1. TwoPathGroups
// is set semantics, in index form — Groups: for each x position of R, in
// ascending x order, the distinct z positions of S it pairs with (ascending
// when the row was built as a bitmap or by sort dedup, in the order of
// discovery, which depends on the thresholds, when it was stamped).
// Groups.Pairs flattens it, Groups.Sort puts z ascending within each x in
// place, Groups.Relation indexes it by counting, and TwoPathGroupBy counts
// each group without storing it. The pair set, the grouping and the indexed
// relation are the same for every worker count. TwoPathCounts adds each
// pair's witness count; it delivers whole x rows from whichever worker owns
// the x, so its output order across x values is unspecified.
//
// # Deduplicating star tuples
//
// The star evaluation meets every projected tuple once per witness and keeps
// a global set of the tuples seen. Section 6 chooses the structure by "the
// number of elements that need to be deduplicated and the domain size": when
// the product of the head variables' key counts is small next to the join
// size the set is a bitmap addressed by the tuple's mixed-radix position
// index, laid out so that bit order is head order; otherwise it is a hash
// set of position tuples (starDedup), 64 mutex-striped tuples.Table shards.
// Under the bitmap the last arm is the fastest digit, so the tuples that
// extend one prefix of the other arms are a contiguous run of bits: a long
// last-arm list is kept as a bitmap row and OR-ed in, shifted, once per
// prefix, and only a short one is marked tuple by tuple.
// internal/tuples is the one tuple store here: the matrix step's row
// numbering (buildGroupMatrix) and the collected output rows use the same
// Table and Arena.
// The two-path light part makes the same kind of choice from the data alone
// (runMode): a dense x row is a bitmap over z positions built by OR-ing whole
// per-y rows, a sparse one is stamped, and over a z-domain too wide for the
// stamp vector every row is sorted.
package joinproject

import (
	mathbits "math/bits"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/bitset"
	"repro/internal/matrix"
	"repro/internal/par"
	"repro/internal/relation"
)

// Options configures a join-project evaluation.
type Options struct {
	// Delta1 is the degree threshold on the join variable y; Delta2 is the
	// threshold on the projected variables. Values ≤ 0 select the paper's
	// closed-form thresholds (Section 3.1) from the output-size estimate.
	Delta1, Delta2 int
	// Workers bounds the parallelism; ≤ 0 uses all cores.
	Workers int
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
// 2-path evaluation needs. Every value is addressed by its position in the
// operand's index (relation.Index.Pos, O(1) over compact key spans), and the
// per-tuple side arrays lie parallel to the index's own concatenated lists
// (relation.Index.Offset), so building the context is a fixed number of
// linear passes and a fixed number of allocations.
type twoPathCtx struct {
	d1, d2 int
	stop   func() bool // polled at block boundaries; nil = never stop
	built  bool        // false when stop interrupted the build: run nothing

	sX, sY, rX *relation.Index

	// zPosByY runs parallel to sY's lists: the sX position of every z. Under
	// a heavy y the light z positions come first, numLight[y position] of
	// them.
	zPosByY  []int32
	numLight []int32

	colOf []int32 // per sY position: heavy column id or -1
	ncols int

	heavyZPos []int32 // matrix row id → z position
	zRows     *matrix.BitMatrix

	// yPosByX runs parallel to rX's lists: the sY position of every y, -1
	// when S has no such y.
	yPosByX []int32

	// Under bitmap dedup, the long z lists as bitmap rows (buildYRows).
	yRowAt []int32
	yRows  []uint64
}

// newTwoPathCtxParallel builds the positional indexes with the given degree
// of parallelism; construction is a per-key-independent transform, so it
// partitions coordination-free like the join itself. stop is polled between
// construction phases, so a cancellation interrupts preprocessing too; an
// interrupted context is marked unbuilt and evaluates to nothing.
func newTwoPathCtxParallel(r, s *relation.Relation, d1, d2, workers int, stop func() bool) *twoPathCtx {
	c := &twoPathCtx{d1: d1, d2: d2, stop: stop, sX: s.ByX(), sY: s.ByY(), rX: r.ByX()}
	halt := func() bool { return stop != nil && stop() }
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

	// Positional z lists per y; under a heavy y, light z first (filled from
	// the front) and heavy z after them (filled from the back).
	c.zPosByY = make([]int32, s.Size())
	c.numLight = make([]int32, ny)
	par.For(ny, workers, func(i int) {
		pos := c.zPosByY[c.sY.Offset(i):c.sY.Offset(i+1)]
		heavyY := c.colOf[i] >= 0
		lo, hi := 0, len(pos)
		for _, z := range c.sY.List(i) {
			zp := c.sX.Pos(z)
			if heavyY && c.sX.Degree(zp) > d2 {
				hi--
				pos[hi] = int32(zp)
			} else {
				pos[lo] = int32(zp)
				lo++
			}
		}
		c.numLight[i] = int32(lo)
	})
	if halt() {
		return c
	}

	// Heavy z rows: z degree above Δ2 and at least one heavy y neighbour.
	if c.ncols > 0 {
		for zp := 0; zp < c.sX.NumKeys(); zp++ {
			if c.sX.Degree(zp) <= d2 {
				continue
			}
			for _, y := range c.sX.List(zp) {
				if c.colOf[c.sY.Pos(y)] >= 0 {
					c.heavyZPos = append(c.heavyZPos, int32(zp))
					break
				}
			}
		}
		c.zRows = matrix.NewBitMatrix(len(c.heavyZPos), c.ncols)
		for row, zp := range c.heavyZPos {
			for _, y := range c.sX.List(int(zp)) {
				if col := c.colOf[c.sY.Pos(y)]; col >= 0 {
					c.zRows.Set(row, int(col))
				}
			}
		}
	}
	if halt() {
		return c
	}

	// R-side positional lists into sY.
	c.yPosByX = make([]int32, r.Size())
	par.For(c.rX.NumKeys(), workers, func(i int) {
		pos := c.yPosByX[c.rX.Offset(i):c.rX.Offset(i+1)]
		for j, y := range c.rX.List(i) {
			pos[j] = int32(c.sY.Pos(y))
		}
	})
	c.built = true
	return c
}

// dedupSortThreshold is the z-domain size above which set semantics
// switches from the stamp vector to append+sort (the stamp array stops
// fitting in cache).
const dedupSortThreshold = 1 << 20

// rowSink receives one x value's whole output row: xpos is its position in
// R's x index, zps the positions in S's x index of its distinct partners
// (ascending for a bitmap or sort-dedup row, in discovery order for a
// stamped one), and cnt, non-nil when counting, the witness count of partner
// zp at cnt[zp]. zps and cnt are the worker's scratch, valid only during the
// call. Rows arrive once per x with at least one partner, from worker
// goroutine `worker`.
type rowSink func(worker, xpos int, zps, cnt []int32)

// runMode evaluates the partitioned join, delivering the output to sink one
// x row at a time. useMM evaluates the all-heavy residual (category 4) as
// rows of the bit-packed product; !useMM is the combinatorial Lemma-2
// variant — identical partitioning, with the residual computed by pairwise
// sorted-list intersection instead. counting asks for exact witness counts.
// The light-part dedup is Section 6's choice by "the number of elements that
// need to be deduplicated and the domain size", made here from S's z-domain:
// counting needs random-access accumulation and always stamps; set semantics
// over at most dedupSortThreshold z keys builds each dense x row as a bitmap
// (bitmapRow) and stamps the rest, and over a wider domain appends and sorts.
// The sink receives the worker index so callers can keep coordination-free
// per-worker buffers — the Section-6 parallelization pattern.
func (c *twoPathCtx) runMode(workers int, useMM, counting bool, sink rowSink) {
	nx := c.rX.NumKeys()
	nw := min(par.Workers(workers), nx)
	if nw < 1 || !c.built {
		return
	}
	sortDedup := !counting && c.sX.NumKeys() > dedupSortThreshold
	bitmaps := !counting && !sortDedup
	zw := (c.sX.NumKeys() + 63) / 64
	if bitmaps {
		c.buildYRows(zw, workers)
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
			if !sortDedup {
				st.stamp = make([]int32, c.sX.NumKeys())
			}
			if bitmaps {
				st.acc = make([]uint64, zw)
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
				c.processBlock(blockLo, min(blockLo+schedBlock, nx), chunk, sink, &st)
			}
		}(chunk)
	}
	wg.Wait()
}

// rowEntriesPerWord is the bitmap-row rule of both kernels: a list, or a
// row's expansion, is kept or built as a bitmap row only when it holds at
// least this many entries per word of the row — enough to pay for clearing,
// OR-ing and reading back the words.
const rowEntriesPerWord = 2

// buildYRows keeps the z list of every y whose S-list holds at least
// rowEntriesPerWord·zw positions as a zw-word bitmap row over z positions:
// yRowAt[y position] is the row's first word in yRows, or -1. Each row
// stands for at least 2·zw list entries, so the rows total at most |S|/2
// words.
func (c *twoPathCtx) buildYRows(zw, workers int) {
	ny := c.sY.NumKeys()
	c.yRowAt = make([]int32, ny)
	words := 0
	for i := range ny {
		c.yRowAt[i] = -1
		if c.sY.Degree(i) >= rowEntriesPerWord*zw {
			c.yRowAt[i] = int32(words)
			words += zw
		}
	}
	c.yRows = make([]uint64, words)
	par.For(ny, workers, func(i int) {
		if at := int(c.yRowAt[i]); at >= 0 {
			row := c.yRows[at : at+zw]
			for _, zp := range c.zPosByY[c.sY.Offset(i):c.sY.Offset(i+1)] {
				row[zp>>6] |= 1 << (zp & 63)
			}
		}
	})
}

// heavyZCols returns the rows of zRows as ascending column lists, the form
// the list-intersection residual consumes.
func (c *twoPathCtx) heavyZCols() [][]int32 {
	if c.zRows == nil {
		return nil
	}
	zCols := make([][]int32, len(c.heavyZPos))
	flat := make([]int32, 0, c.zRows.Ones())
	for j := range zCols {
		start := len(flat)
		c.zRows.Row(j).ForEach(func(col int) { flat = append(flat, int32(col)) })
		zCols[j] = flat[start:len(flat):len(flat)]
	}
	return zCols
}

// blockState is one worker's scratch, reused across the blocks it pulls.
// The evaluation mode is fixed per call by which scratch is present: cnt
// (counting), stamp (stamp dedup; absent under sort dedup), acc (bitmap
// dedup: the dense x rows' accumulator, one bit per z position), and for the
// heavy residual aRow (the current heavy x as a bit row, multiplied against
// zRows) or zCols/aCols (the same matrix and row as sorted column lists,
// intersected pairwise).
type blockState struct {
	stamp, cnt []int32
	row        []int32 // the current x's distinct z positions
	acc        []uint64

	aRow *bitset.Bitset

	zCols [][]int32
	aCols []int32
}

// schedBlock is the dynamic scheduling granularity (x positions per pull).
const schedBlock = 64

// processBlock evaluates x positions [lo, hi) with the worker-local state.
func (c *twoPathCtx) processBlock(lo, hi, chunk int, sink rowSink, st *blockState) {
	stamp, cnt, aRow, zCols := st.stamp, st.cnt, st.aRow, st.zCols
	row, aCols := st.row, st.aCols
	defer func() { st.row, st.aCols = row, aCols }()
	useMM, counting, dedupSort := aRow != nil, cnt != nil, stamp == nil
	for i := lo; i < hi; i++ {
		ys := c.yPosByX[c.rX.Offset(i):c.rX.Offset(i+1)]
		epoch := int32(i + 1)
		aHeavy := len(ys) > c.d2
		if aHeavy && c.ncols > 0 {
			// This x's heavy columns, in the residual's operand form.
			if useMM {
				aRow.Reset()
				for _, yp := range ys {
					if yp >= 0 {
						if col := c.colOf[yp]; col >= 0 {
							aRow.Set(int(col))
						}
					}
				}
			} else {
				aCols = aCols[:0]
				for _, yp := range ys {
					if yp >= 0 {
						if col := c.colOf[yp]; col >= 0 {
							aCols = append(aCols, col)
						}
					}
				}
				slices.Sort(aCols)
			}
		}
		row = row[:0]
		// bits is the x's row as a bitmap when the x is dense enough for the
		// bitmap to pay; nil runs the per-witness loops below.
		bits := c.bitmapRow(ys, st.acc)
		if bits != nil {
			c.orRows(ys, aHeavy, bits)
		} else {
			for _, yp := range ys {
				if yp < 0 {
					continue
				}
				// Light y (category 1) or heavy y with light x (category 2):
				// expand every partner z. Heavy y and heavy x: only the light
				// z partners (category 3); heavy z is the matrix's job.
				cand := c.zPosByY[c.sY.Offset(int(yp)):c.sY.Offset(int(yp)+1)]
				if aHeavy && c.colOf[yp] >= 0 {
					cand = cand[:c.numLight[yp]]
				}
				switch {
				case counting:
					for _, zp := range cand {
						if stamp[zp] != epoch {
							stamp[zp] = epoch
							cnt[zp] = 1
							row = append(row, zp)
						} else {
							cnt[zp]++
						}
					}
				case dedupSort:
					row = append(row, cand...)
				default:
					for _, zp := range cand {
						if stamp[zp] != epoch {
							stamp[zp] = epoch
							row = append(row, zp)
						}
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
				case bits != nil:
					bits[zp>>6] |= 1 << (zp & 63)
				case dedupSort:
					row = append(row, zp)
				case stamp[zp] != epoch:
					stamp[zp] = epoch
					row = append(row, zp)
					if counting {
						cnt[zp] = int32(n)
					}
				case counting:
					cnt[zp] += int32(n)
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
		switch {
		case bits != nil:
			row = appendOnes(row, bits)
		case dedupSort:
			// Section-6 alternative: append all reachable z values, then
			// sort + unique.
			slices.Sort(row)
			row = slices.Compact(row)
		}
		if len(row) > 0 {
			sink(chunk, i, row, cnt)
		}
	}
}

// bitmapRow returns acc cleared when the x with join positions ys expands
// at least rowEntriesPerWord·len(acc) z positions, and nil otherwise, or
// when acc is nil.
func (c *twoPathCtx) bitmapRow(ys []int32, acc []uint64) []uint64 {
	if acc == nil {
		return nil
	}
	work := 0
	for _, yp := range ys {
		if yp >= 0 {
			if work += c.sY.Degree(int(yp)); work >= rowEntriesPerWord*len(acc) {
				clear(acc)
				return acc
			}
		}
	}
	return nil
}

// orRows sets in bits every z position the x with join positions ys reaches
// through categories 1–3. A y that contributes its whole list ORs its
// bitmap row when it has one; every other list sets its bits one at a time:
// short lists, and under a heavy y and a heavy x the light-z prefix
// (category 3).
func (c *twoPathCtx) orRows(ys []int32, aHeavy bool, bits []uint64) {
	for _, yp := range ys {
		if yp < 0 {
			continue
		}
		cand := c.zPosByY[c.sY.Offset(int(yp)):c.sY.Offset(int(yp)+1)]
		if aHeavy && c.colOf[yp] >= 0 {
			cand = cand[:c.numLight[yp]]
		} else if at := int(c.yRowAt[yp]); at >= 0 {
			src := c.yRows[at : at+len(bits)]
			for w, v := range src {
				bits[w] |= v
			}
			continue
		}
		for _, zp := range cand {
			bits[zp>>6] |= 1 << (zp & 63)
		}
	}
}

// appendOnes appends the positions of the set bits of bits to dst,
// ascending.
func appendOnes(dst []int32, bits []uint64) []int32 {
	for w, b := range bits {
		for ; b != 0; b &= b - 1 {
			dst = append(dst, int32(w<<6+mathbits.TrailingZeros64(b)))
		}
	}
	return dst
}

// Groups is a two-path result in index form, grouped by x: x value XKeys[i]
// pairs with the z values ZKeys[p] for every position p in
// ZPos[Off[i]:Off[i+1]]. XKeys and ZKeys are the operands' own ascending key
// lists (R's and S's first columns; not every key has output), so the
// result addresses the same positions the operands' indexes do. Within a
// group the positions are distinct; a group built as a bitmap or by sort
// dedup is ascending, and any other is in discovery order, which varies with
// the thresholds. The set of pairs does not, and neither it nor the group
// order depends on the worker count.
type Groups struct {
	XKeys, ZKeys []int32
	Off, ZPos    []int32
}

// Pairs flattens the result to (x, z) value pairs, x ascending.
func (g Groups) Pairs() [][2]int32 {
	out := make([][2]int32, 0, len(g.ZPos))
	for i, x := range g.XKeys {
		for _, zp := range g.ZPos[g.Off[i]:g.Off[i+1]] {
			out = append(out, [2]int32{x, g.ZKeys[zp]})
		}
	}
	return out
}

// Sort orders every group's z positions ascending, in place: the pairs then
// run x ascending and z ascending within each x, the order Relation's x
// index walks them in, without building either index. A group dense over
// ZKeys is sorted by setting and reading back one bit per position, a sparse
// one by comparison; a group already ascending is left as it is.
func (g Groups) Sort() {
	words := (len(g.ZKeys) + 63) / 64
	var bits []uint64
	for i := 0; i+1 < len(g.Off); i++ {
		grp := g.ZPos[g.Off[i]:g.Off[i+1]]
		if slices.IsSorted(grp) {
			continue
		}
		if len(grp) < words {
			slices.Sort(grp)
			continue
		}
		if bits == nil {
			bits = make([]uint64, words)
		}
		for _, zp := range grp {
			bits[zp>>6] |= 1 << (zp & 63)
		}
		appendOnes(grp[:0], bits)
		clear(bits)
	}
}

// Relation indexes the result as a relation (x, z) by counting
// transpositions over the positions, in O(|ZPos| + |XKeys| + |ZKeys|): no
// sort, no search.
func (g Groups) Relation(name string) *relation.Relation {
	return relation.FromGroups(name, g.XKeys, g.ZKeys, g.Off, g.ZPos)
}

// groupCollector gathers output rows into coordination-free per-worker
// buffers and remembers where each x's row went, so the rows concatenate in
// x order whatever the worker count and block schedule.
type groupCollector struct {
	bufs         [][]int32 // per worker: its rows, back to back
	who, at, n   []int32   // per x position: worker, start in its buffer, length
	xKeys, zKeys []int32
}

func newGroupCollector(c *twoPathCtx, workers int) *groupCollector {
	nx := c.rX.NumKeys()
	return &groupCollector{
		bufs: make([][]int32, par.Workers(workers)),
		who:  make([]int32, nx), at: make([]int32, nx), n: make([]int32, nx),
		xKeys: c.rX.Keys(), zKeys: c.sX.Keys(),
	}
}

func (gc *groupCollector) sink(worker, xpos int, zps, _ []int32) {
	gc.who[xpos], gc.at[xpos], gc.n[xpos] = int32(worker), int32(len(gc.bufs[worker])), int32(len(zps))
	gc.bufs[worker] = append(gc.bufs[worker], zps...)
}

func (gc *groupCollector) groups() Groups {
	g := Groups{XKeys: gc.xKeys, ZKeys: gc.zKeys, Off: make([]int32, len(gc.n)+1)}
	for i, n := range gc.n {
		g.Off[i+1] = g.Off[i] + n
	}
	g.ZPos = make([]int32, g.Off[len(gc.n)])
	for i, n := range gc.n {
		copy(g.ZPos[g.Off[i]:], gc.bufs[gc.who[i]][gc.at[i]:gc.at[i]+n])
	}
	return g
}

// TwoPathGroups evaluates π_{x,z}(R(x,y) ⋈ S(z,y)) and returns the distinct
// output pairs in index form: with Algorithm 1 when mm is set, with the
// combinatorial Lemma-2 variant (the same degree partitioning, the heavy
// residual by pairwise sorted-list intersection) otherwise. This is the one
// set-semantics evaluation: callers flatten it (Groups.Pairs), acyclic.Compose
// takes its Relation, and a query's last fold reads it directly
// (acyclic.ComposeGroups).
func TwoPathGroups(r, s *relation.Relation, opt Options, mm bool) Groups {
	opt = opt.normalize(r, s)
	c := newTwoPathCtxParallel(r, s, opt.Delta1, opt.Delta2, opt.Workers, opt.Stop)
	gc := newGroupCollector(c, opt.Workers)
	c.runMode(opt.Workers, mm, false, gc.sink)
	return gc.groups()
}

// TwoPathCounts evaluates the counting 2-path: every distinct output pair
// with its exact witness count, with Algorithm 1 when mm is set and with the
// Lemma-2 variant otherwise. The light/heavy witness categories of
// Algorithm 1 partition the witness space, so counts are exact. Per-worker
// buffers are concatenated in worker order.
func TwoPathCounts(r, s *relation.Relation, opt Options, mm bool) []PairCount {
	opt = opt.normalize(r, s)
	c := newTwoPathCtxParallel(r, s, opt.Delta1, opt.Delta2, opt.Workers, opt.Stop)
	slots := make([][]PairCount, par.Workers(opt.Workers))
	c.runMode(opt.Workers, mm, true, func(worker, xpos int, zps, cnt []int32) {
		x := c.rX.Key(xpos)
		for _, zp := range zps {
			slots[worker] = append(slots[worker], PairCount{X: x, Z: c.sX.Key(int(zp)), Count: cnt[zp]})
		}
	})
	return slices.Concat(slots...)
}
