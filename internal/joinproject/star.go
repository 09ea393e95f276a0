package joinproject

import (
	"math/bits"
	"sync"
	"sync/atomic"

	"repro/internal/matrix"
	"repro/internal/par"
	"repro/internal/relation"
	"repro/internal/tuples"
)

// The star evaluation works on key positions, not values: every x is
// addressed by its position in its relation's x index, a projected tuple is
// a k-tuple of positions, and values are looked up only for the distinct
// tuples that reach the output.

// starDedup is the global set of projected tuples one star evaluation has
// produced, shared by its parallel workers. Section 6 picks the dedup
// structure by "the number of elements that need to be deduplicated and the
// domain size"; here the domain is the product Π|dom xⱼ| of the head
// variables' key counts and the elements are the join tuples |OUT⋈|:
//
//   - a small domain gets one bit per possible tuple, addressed by the
//     mixed-radix index of the tuple's positions with the last arm fastest,
//     so bit order is head order: the kernel only sets bits, and the
//     distinct tuples are read out afterwards by one walk over the bitmap,
//     sorted and the same for every worker count. The tuples extending one
//     prefix of the first k−1 arms are a run of bits, so a long last-arm
//     list is OR-ed in as one shifted row (starCtx.buildLastRows);
//   - a large one gets a hash set of the position tuples actually seen,
//     striped over mutex-guarded shards, which reports each tuple as new to
//     whichever worker meets it first, so the output order varies with the
//     schedule.
//
// Both are functions of the operands' sizes alone.
type starDedup struct {
	domains []int           // key count of each arm's head variable
	stride  []uint64        // bitmap: tuple index = Σ ps[j]·stride[j]
	bitmap  []atomic.Uint64 // nil = use the shards
	shards  *[dedupShards]dedupShard
}

const (
	dedupShards = 64
	// maxBitmapBits caps the bitmap at 16 MiB; bitmapBitsPerJoinTuple bounds
	// it by the work the join does anyway (one word cleared per join tuple).
	maxBitmapBits          = 1 << 27
	bitmapBitsPerJoinTuple = 64
)

// dedupShard is one stripe of the hash set; a tuples.Table is not safe for
// concurrent use, so each stripe keeps its own lock.
type dedupShard struct {
	mu  sync.Mutex
	set *tuples.Table
}

// newStarDedup sizes the dedup structure for tuples over domains of the
// given key counts, of which about joinSize will be offered.
func newStarDedup(domains []int, joinSize float64) *starDedup {
	d := &starDedup{domains: domains, stride: make([]uint64, len(domains))}
	total, fits := uint64(1), true
	for j := len(domains) - 1; j >= 0; j-- {
		d.stride[j] = total
		hi, lo := bits.Mul64(total, uint64(domains[j]))
		total, fits = lo, fits && hi == 0
	}
	if fits && total <= maxBitmapBits && float64(total) <= bitmapBitsPerJoinTuple*joinSize {
		d.bitmap = make([]atomic.Uint64, (total+63)/64)
		return d
	}
	d.shards = new([dedupShards]dedupShard)
	for i := range d.shards {
		d.shards[i].set = tuples.NewTable(len(domains))
	}
	return d
}

// mark sets the bitmap bit of the position tuple ps or, when row is
// non-nil, of every tuple that extends the prefix ps[:k−1] by a last-arm
// position set in row. Safe for concurrent use.
func (d *starDedup) mark(ps []int32, row []uint64) {
	k := len(ps)
	var idx uint64
	for j, p := range ps[:k-1] {
		idx += uint64(p) * d.stride[j]
	}
	if row == nil {
		idx += uint64(ps[k-1]) // stride[k-1] = 1
		d.or(idx/64, 1<<(idx%64))
		return
	}
	// The prefix's tuples are bits [idx, idx+D): row word t lands in words
	// q+t and q+t+1 (at s = 0 the shift by 64 leaves the second nothing).
	q, s := idx/64, idx%64
	for t, v := range row {
		d.or(q+uint64(t), v<<s)
		d.or(q+uint64(t)+1, v>>(64-s))
	}
}

// or sets bits in word w, leaving after the load when they are set already;
// zero bits (the empty spill past the bitmap's last word) touch nothing.
func (d *starDedup) or(w, bits uint64) {
	if bits == 0 {
		return
	}
	if x := &d.bitmap[w]; x.Load()&bits != bits {
		x.Or(bits)
	}
}

// each calls f with every position tuple marked in the bitmap, in head
// order (lexicographic in the positions, so in the keys). ps is reused
// across calls.
func (d *starDedup) each(f func(ps []int32)) {
	ps := make([]int32, len(d.domains))
	for w := range d.bitmap {
		for b := d.bitmap[w].Load(); b != 0; b &= b - 1 {
			idx := uint64(w)<<6 + uint64(bits.TrailingZeros64(b))
			for j := len(ps) - 1; j >= 0; j-- {
				n := uint64(d.domains[j])
				ps[j] = int32(idx % n)
				idx /= n
			}
			f(ps)
		}
	}
}

// count returns the number of tuples marked in the bitmap.
func (d *starDedup) count() int64 {
	var n int
	for w := range d.bitmap {
		n += bits.OnesCount64(d.bitmap[w].Load())
	}
	return int64(n)
}

// insert adds the position tuple ps to the hash set and reports whether it
// was new. Safe for concurrent use.
func (d *starDedup) insert(ps []int32) bool {
	h := tuples.Hash(ps)
	sh := &d.shards[h>>(64-6)]
	sh.mu.Lock()
	_, fresh := sh.set.InsertHashed(h, ps)
	sh.mu.Unlock()
	return fresh
}

// starScratch is the per-worker tuple buffer of the star evaluation: every
// producer (light-enumeration chunk, combinatorial chunk, matrix-product
// row) checks one out for its lifetime, so the per-tuple hot path allocates
// nothing.
type starScratch struct {
	ps []int32 // the position tuple under construction
}

var starScratchPool = sync.Pool{New: func() any { return new(starScratch) }}

func getStarScratch(k int) *starScratch {
	s := starScratchPool.Get().(*starScratch)
	if cap(s.ps) < k {
		s.ps = make([]int32, k)
	}
	s.ps = s.ps[:k]
	return s
}

func putStarScratch(s *starScratch) { starScratchPool.Put(s) }

// starCtx precomputes the per-relation degree and position information for
// Q★k.
type starCtx struct {
	rels   []*relation.Relation
	k      int
	d1, d2 int
	ys     []int32
	// yHeavyCount[i] = number of relations in which ys[i] has degree > Δ1.
	yHeavyCount []int8
	// yPos[j][i] is the position of ys[i] in relation j's y index.
	yPos [][]int32
	// xPosByY[j] runs parallel to relation j's y-index lists
	// (relation.Index.Offset): the x-index position of every x.
	xPosByY [][]int32
	// joinSize is |OUT⋈| = Σ_y Π_j deg_j(y).
	joinSize float64
	stop     func() bool // polled at block boundaries; nil = never stop
	// Under the bitmap, the last arm's long lists as lastW-word rows
	// (buildLastRows): ys[i]'s starts at lastRows[lastRowAt[i]], or -1.
	lastRowAt []int32
	lastRows  []uint64
	lastW     int
}

func newStarCtx(rels []*relation.Relation, d1, d2 int) *starCtx {
	c := &starCtx{rels: rels, k: len(rels), d1: d1, d2: d2}
	c.ys = relation.CommonYs(rels...)
	c.yHeavyCount = make([]int8, len(c.ys))
	c.yPos = make([][]int32, c.k)
	c.xPosByY = make([][]int32, c.k)
	for j, r := range rels {
		byX, byY := r.ByX(), r.ByY()
		c.yPos[j] = make([]int32, len(c.ys))
		c.xPosByY[j] = make([]int32, r.Size())
		for i, y := range c.ys {
			yp := byY.Pos(y)
			c.yPos[j][i] = int32(yp)
			if byY.Degree(yp) > d1 {
				c.yHeavyCount[i]++
			}
			pos := c.xPosByY[j][byY.Offset(yp):byY.Offset(yp+1)]
			for n, x := range byY.List(yp) {
				pos[n] = int32(byX.Pos(x))
			}
		}
	}
	for i := range c.ys {
		w := 1.0
		for j, r := range rels {
			w *= float64(r.ByY().Degree(int(c.yPos[j][i])))
		}
		c.joinSize += w
	}
	return c
}

// xList returns the x positions of relation j's tuples at join value ys[i].
func (c *starCtx) xList(j, i int) []int32 {
	byY, yp := c.rels[j].ByY(), int(c.yPos[j][i])
	return c.xPosByY[j][byY.Offset(yp):byY.Offset(yp+1)]
}

// heavyX reports whether the x at position xp is heavy (degree > Δ2) in
// relation j.
func (c *starCtx) heavyX(j int, xp int32) bool {
	return c.rels[j].ByX().Degree(int(xp)) > c.d2
}

// buildLastRows keeps the last arm's x list at every common y that holds at
// least rowEntriesPerWord·w positions, w = ⌈D/64⌉ for the arm's D keys, as a
// w-word bitmap row over x positions; the rows total ≤ |R_{k−1}|/2 words.
func (c *starCtx) buildLastRows() {
	last := c.k - 1
	c.lastW = (c.rels[last].NumX() + 63) / 64
	c.lastRowAt = make([]int32, len(c.ys))
	words := 0
	for i := range c.ys {
		c.lastRowAt[i] = -1
		if len(c.xList(last, i)) >= rowEntriesPerWord*c.lastW {
			c.lastRowAt[i] = int32(words)
			words += c.lastW
		}
	}
	c.lastRows = make([]uint64, words)
	for i, at := range c.lastRowAt {
		if at >= 0 {
			row := c.lastRows[at : int(at)+c.lastW]
			for _, xp := range c.xList(last, i) {
				row[xp>>6] |= 1 << (xp & 63)
			}
		}
	}
}

// lastRow returns how many arms an enumeration at ys[i] crosses and the last
// arm's row there: k and nil, or k−1 and the row that stands in for the arm.
func (c *starCtx) lastRow(i int) (arms int, row []uint64) {
	if c.lastRowAt == nil || c.lastRowAt[i] < 0 {
		return c.k, nil
	}
	at := int(c.lastRowAt[i])
	return c.k - 1, c.lastRows[at : at+c.lastW]
}

// starSink receives the position tuple ps (the producer's scratch, valid
// during the call) or, when row is non-nil, every tuple that extends the
// prefix ps[:k−1] by a last-arm position set in row (starDedup.mark).
type starSink func(ps []int32, row []uint64)

// values translates a position tuple into the x values it stands for.
func (c *starCtx) values(dst, ps []int32) {
	for j, p := range ps {
		dst[j] = c.rels[j].ByX().Key(int(p))
	}
}

// enumerateLight visits every projected tuple that has a witness with at
// least one non-all-heavy tuple — steps (1) and (2) of the Section-3.2
// algorithm — and hands it to emit, one prefix and row at a time where the
// last arm's list has a bitmap row (lastRow). At the segment where the last
// arm must be light that row is still the arm's whole list: the all-heavy
// tuples it adds are in the set the matrix step produces anyway.
func (c *starCtx) enumerateLight(workers int, emit starSink) {
	par.ForChunks(len(c.ys), workers, func(lo, hi int) {
		sc := getStarScratch(c.k)
		defer putStarScratch(sc)
		ps := sc.ps
		lists := make([][]int32, c.k)
		lightPart := make([][]int32, c.k)
		heavyPart := make([][]int32, c.k)
		var row []uint64
		f := func() { emit(ps, row) }
		for i := lo; i < hi; i++ {
			if c.stop != nil && i&63 == 0 && c.stop() {
				return
			}
			for j := range c.rels {
				lists[j] = c.xList(j, i)
			}
			var m int
			m, row = c.lastRow(i)
			if c.yHeavyCount[i] < 2 {
				// No tuple at this y can be all-heavy (Rj⁺ needs a heavy y
				// in some other relation), so enumerate the full product.
				crossEmit(lists[:m], ps, 0, f)
				continue
			}
			// Split each list into light and heavy x values; enumerate all
			// combinations except heavy×heavy×...×heavy, which the matrix
			// step covers.
			for j := range c.rels {
				lightPart[j] = lightPart[j][:0]
				heavyPart[j] = heavyPart[j][:0]
				for _, xp := range lists[j] {
					if c.heavyX(j, xp) {
						heavyPart[j] = append(heavyPart[j], xp)
					} else {
						lightPart[j] = append(lightPart[j], xp)
					}
				}
			}
			// First-light-position decomposition: position p takes heavy
			// values before p, light at p, anything after p. Each
			// not-all-heavy combination is produced exactly once.
			for p := 0; p < c.k; p++ {
				if len(lightPart[p]) == 0 {
					continue
				}
				crossSegmented(heavyPart[:m], lightPart[:m], lists[:m], ps, 0, p, f)
			}
		}
	})
}

func crossEmit(lists [][]int32, xs []int32, depth int, f func()) {
	if depth == len(lists) {
		f()
		return
	}
	for _, v := range lists[depth] {
		xs[depth] = v
		crossEmit(lists, xs, depth+1, f)
	}
}

// crossSegmented enumerates heavy[0..p-1] × light[p] × full[p+1..k-1].
func crossSegmented(heavy, light, full [][]int32, xs []int32, depth, p int, f func()) {
	if depth == len(full) {
		f()
		return
	}
	var seg []int32
	switch {
	case depth < p:
		seg = heavy[depth]
	case depth == p:
		seg = light[depth]
	default:
		seg = full[depth]
	}
	if len(seg) == 0 {
		return
	}
	for _, v := range seg {
		xs[depth] = v
		crossSegmented(heavy, light, full, xs, depth+1, p, f)
	}
}

// heavyColumns numbers the join values eligible for the matrix step (heavy
// in at least two relations): yCol[i] is ys[i]'s column or -1.
func (c *starCtx) heavyColumns() (yCol []int32, ncols int) {
	yCol = make([]int32, len(c.ys))
	for i := range c.ys {
		yCol[i] = -1
		if c.yHeavyCount[i] >= 2 {
			yCol[i] = int32(ncols)
			ncols++
		}
	}
	return yCol, ncols
}

// buildGroupMatrix materializes the Section-3.2 matrix for relations
// [jlo, jhi): rows are distinct position tuples of heavy x values
// co-occurring under some eligible heavy y, columns are those y values.
func (c *starCtx) buildGroupMatrix(jlo, jhi int, yCol []int32, ncols int) (rows [][]int32, bm *matrix.BitMatrix) {
	rowID := tuples.NewTable(jhi - jlo)
	type cell struct{ row, col int }
	var cells []cell
	ps := make([]int32, jhi-jlo)
	heavyLists := make([][]int32, jhi-jlo)
	for i, col := range yCol {
		if col < 0 {
			continue
		}
		ok := true
		for j := jlo; j < jhi; j++ {
			hv := heavyLists[j-jlo][:0]
			for _, xp := range c.xList(j, i) {
				if c.heavyX(j, xp) {
					hv = append(hv, xp)
				}
			}
			heavyLists[j-jlo] = hv
			if len(hv) == 0 {
				ok = false
				break
			}
		}
		if !ok {
			continue
		}
		crossEmit(heavyLists, ps, 0, func() {
			id, _ := rowID.Insert(ps)
			cells = append(cells, cell{id, int(col)})
		})
	}
	rows = rowID.Rows()
	bm = matrix.NewBitMatrix(len(rows), ncols)
	for _, cl := range cells {
		bm.Set(cl.row, cl.col)
	}
	return rows, bm
}

// heavyProduct runs step 3 of the Section-3.2 algorithm: the all-heavy
// tuples as the grouped matrix product V × Wᵀ, each handed to visit whole.
func (c *starCtx) heavyProduct(workers int, visit starSink) {
	yCol, ncols := c.heavyColumns()
	if ncols == 0 {
		return
	}
	g := (c.k + 1) / 2
	rowsA, va := c.buildGroupMatrix(0, g, yCol, ncols)
	if len(rowsA) == 0 {
		return
	}
	rowsB, wb := c.buildGroupMatrix(g, c.k, yCol, ncols)
	if len(rowsB) == 0 {
		return
	}
	matrix.ForEachRowProductStop(va, wb, workers, c.stop, func(i int, counts []int32) {
		sc := getStarScratch(c.k)
		copy(sc.ps, rowsA[i])
		for j, n := range counts {
			if n != 0 {
				copy(sc.ps[g:], rowsB[j])
				visit(sc.ps, nil)
			}
		}
		putStarScratch(sc)
	})
}

// newDedup sizes the tuple set for this instance: the head variables' key
// counts against the full join size.
func (c *starCtx) newDedup() *starDedup {
	domains := make([]int, c.k)
	for j, r := range c.rels {
		domains[j] = r.NumX()
	}
	return newStarDedup(domains, c.joinSize)
}

// runStar evaluates Q★k with the MM (useMM=true) or combinatorial strategy
// into dedup. Under the hash set it streams each distinct projected tuple to
// emit as a position tuple as the workers meet it (called from multiple
// goroutines; the slice is the worker's scratch, valid during the call —
// translate it with values). Under the bitmap it only sets bits and never
// calls emit: it builds the last arm's bitmap rows first, every enumeration
// loop crosses the first k−1 arms and ORs a y's row where it has one, and
// the caller reads the tuples afterwards with dedup.each or dedup.count.
func (c *starCtx) runStar(workers int, useMM bool, dedup *starDedup, emit func(ps []int32)) {
	keyed := starSink(func(ps []int32, _ []uint64) {
		if dedup.insert(ps) {
			emit(ps)
		}
	})
	if dedup.bitmap != nil {
		c.buildLastRows()
		keyed = dedup.mark
	}
	if !useMM {
		// Combinatorial baseline: enumerate the full join and deduplicate.
		par.ForChunks(len(c.ys), workers, func(lo, hi int) {
			sc := getStarScratch(c.k)
			defer putStarScratch(sc)
			lists := make([][]int32, c.k)
			var row []uint64
			f := func() { keyed(sc.ps, row) }
			for i := lo; i < hi; i++ {
				if c.stop != nil && i&63 == 0 && c.stop() {
					return
				}
				for j := range c.rels {
					lists[j] = c.xList(j, i)
				}
				var m int
				m, row = c.lastRow(i)
				crossEmit(lists[:m], sc.ps, 0, f)
			}
		})
		return
	}
	// Step 1+2: everything with a light component.
	c.enumerateLight(workers, keyed)
	// Step 3: all-heavy tuples via the grouped matrix product V × Wᵀ.
	c.heavyProduct(workers, keyed)
}

// starThresholds fills unset thresholds with the closed forms.
func starThresholds(rels []*relation.Relation, opt Options) Options {
	if opt.Delta1 <= 0 || opt.Delta2 <= 0 {
		d1, d2 := HeuristicStarThresholds(rels, len(rels))
		if opt.Delta1 <= 0 {
			opt.Delta1 = d1
		}
		if opt.Delta2 <= 0 {
			opt.Delta2 = d2
		}
	}
	return opt
}

// collect runs the star and gathers the distinct output tuples as values,
// stored back to back in one arena: in head order under the bitmap, in the
// order the workers meet them under the hash set.
func (c *starCtx) collect(workers int, useMM bool) [][]int32 {
	dedup := c.newDedup()
	store := tuples.NewArena[int32](c.k)
	if dedup.bitmap != nil {
		c.runStar(workers, useMM, dedup, nil)
		dedup.each(func(ps []int32) { c.values(store.Alloc(), ps) })
		return store.Rows()
	}
	var mu sync.Mutex
	c.runStar(workers, useMM, dedup, func(ps []int32) {
		mu.Lock()
		xs := store.Alloc()
		mu.Unlock()
		c.values(xs, ps)
	})
	return store.Rows()
}

// StarMM evaluates the projected star query π_{x1..xk}(R1 ⋈ ... ⋈ Rk) with
// the Section-3.2 algorithm and returns the distinct output tuples.
func StarMM(rels []*relation.Relation, opt Options) [][]int32 {
	if len(rels) == 0 {
		return nil
	}
	opt = starThresholds(rels, opt)
	c := newStarCtx(rels, opt.Delta1, opt.Delta2)
	c.stop = opt.Stop
	return c.collect(opt.Workers, true)
}

// StarNonMM is the combinatorial baseline: full WCOJ enumeration of the star
// join followed by deduplication (the plan Lemma 2 underlies, without the
// matrix step).
func StarNonMM(rels []*relation.Relation, opt Options) [][]int32 {
	if len(rels) == 0 {
		return nil
	}
	if opt.Delta1 <= 0 || opt.Delta2 <= 0 {
		opt.Delta1, opt.Delta2 = 1, 1
	}
	c := newStarCtx(rels, opt.Delta1, opt.Delta2)
	c.stop = opt.Stop
	return c.collect(opt.Workers, false)
}

// StarMMSize returns the number of distinct projected star tuples without
// collecting them.
func StarMMSize(rels []*relation.Relation, opt Options) int64 {
	if len(rels) == 0 {
		return 0
	}
	opt = starThresholds(rels, opt)
	c := newStarCtx(rels, opt.Delta1, opt.Delta2)
	c.stop = opt.Stop
	dedup := c.newDedup()
	var n atomic.Int64
	c.runStar(opt.Workers, true, dedup, func([]int32) { n.Add(1) })
	if dedup.bitmap != nil {
		return dedup.count()
	}
	return n.Load()
}
