package relation

import "slices"

// The builder core. Every constructor — FromPairs, ApplyDelta, FromGroups —
// reduces its input to one of two shapes and hands
// it to the matching finisher:
//
//   - a (key, val)-sorted run of packed tuples → indexFromPacked, which
//     drops adjacent duplicates;
//   - counting buckets over a compact code range → indexFromBuckets, filled
//     by invert, the stable counting transposition.
//
// Which shape a column takes is a property of the data alone: a span of at
// most denseSpanFactor × items is addressed (counted, scattered, looked up
// by subtraction); a wider one is sorted as packed uint64 keys and searched.

// denseSpanFactor bounds the key span, relative to the number of items
// spread over it, up to which the builder counts instead of sorting and an
// Index keeps a direct position table: at most this many table slots per
// key.
const denseSpanFactor = 4

// compact reports whether n items spread over a span of the given width are
// dense enough to address directly.
func compact(span int64, n int) bool { return n > 0 && span <= denseSpanFactor*int64(n) }

// signBit flips an int32's sign so that unsigned order equals signed order.
const signBit = 1 << 31

// pack orders tuples as integers: packed keys compare like (k, v) pairs.
func pack(k, v int32) uint64 {
	return uint64(uint32(k)^signBit)<<32 | uint64(uint32(v)^signBit)
}

func unpack(p uint64) (k, v int32) {
	return int32(uint32(p>>32) ^ signBit), int32(uint32(p) ^ signBit)
}

// packPairs packs ps as (x, y) keys, or (y, x) when swap is set.
func packPairs(ps []Pair, swap bool) []uint64 {
	out := make([]uint64, len(ps))
	for i, p := range ps {
		if swap {
			out[i] = pack(p.Y, p.X)
		} else {
			out[i] = pack(p.X, p.Y)
		}
	}
	return out
}

// sortPacked sorts packed tuples ascending, in place. Sorted input is left
// alone; when both halves span compact ranges the sort is two stable counting
// passes (LSD radix on the two columns), otherwise a comparison sort of the
// integers themselves.
func sortPacked(p []uint64) {
	if slices.IsSorted(p) {
		return
	}
	hiMin, hiMax := uint32(p[0]>>32), uint32(p[0]>>32)
	loMin, loMax := uint32(p[0]), uint32(p[0])
	for _, v := range p[1:] {
		hi, lo := uint32(v>>32), uint32(v)
		hiMin, hiMax = min(hiMin, hi), max(hiMax, hi)
		loMin, loMax = min(loMin, lo), max(loMax, lo)
	}
	hiSpan, loSpan := int64(hiMax-hiMin)+1, int64(loMax-loMin)+1
	if !compact(hiSpan, len(p)) || !compact(loSpan, len(p)) {
		slices.Sort(p)
		return
	}
	tmp := make([]uint64, len(p))
	cnt := make([]int32, max(hiSpan, loSpan)+1)
	countingPass(tmp, p, 0, loMin, cnt[:loSpan+1])
	clear(cnt)
	countingPass(p, tmp, 32, hiMin, cnt[:hiSpan+1])
}

// countingPass stably distributes src into dst by the 32-bit digit at shift,
// whose values lie in [lo, lo+len(cnt)-1). cnt must be zeroed.
func countingPass(dst, src []uint64, shift uint, lo uint32, cnt []int32) {
	for _, v := range src {
		cnt[uint32(v>>shift)-lo+1]++
	}
	for i := 1; i < len(cnt); i++ {
		cnt[i] += cnt[i-1]
	}
	for _, v := range src {
		d := uint32(v>>shift) - lo
		dst[cnt[d]] = v
		cnt[d]++
	}
}

// indexFromPacked builds the index of a sorted run of packed (key, val)
// tuples, dropping adjacent duplicates.
func indexFromPacked(p []uint64) *Index {
	nk, n := 0, 0
	for i, v := range p {
		if i > 0 && v == p[i-1] {
			continue
		}
		n++
		if i == 0 || v>>32 != p[i-1]>>32 {
			nk++
		}
	}
	ix := &Index{
		keys: make([]int32, 0, nk),
		off:  make([]int32, 0, nk+1),
		vals: make([]int32, 0, n),
	}
	for i, v := range p {
		if i > 0 && v == p[i-1] {
			continue
		}
		k, val := unpack(v)
		if i == 0 || v>>32 != p[i-1]>>32 {
			ix.keys = append(ix.keys, k)
			ix.off = append(ix.off, int32(len(ix.vals)))
		}
		ix.vals = append(ix.vals, val)
	}
	ix.off = append(ix.off, int32(len(ix.vals)))
	ix.addressKeys()
	return ix
}

// invert is the stable counting transposition. The input is grouped: row r
// owns codes[off[r]:off[r+1]], every code c satisfying 0 ≤ c−base < m. The
// result is grouped the other way: bucket d = c−base owns
// vals[boff[d]:boff[d+1]], holding one entry per occurrence of the code, in
// ascending row order — the row number itself, or rowVals[r] when rowVals is
// non-nil. Rows without duplicate codes therefore give strictly ascending
// buckets. O(len(codes) + m), no comparisons.
func invert(off, codes []int32, base int32, m int, rowVals []int32) (boff, vals []int32) {
	boff = make([]int32, m+1)
	for _, c := range codes {
		boff[int(c)-int(base)+1]++
	}
	for d := 1; d <= m; d++ {
		boff[d] += boff[d-1]
	}
	// Scatter with boff[d] as bucket d's cursor; afterwards boff[d] is the
	// end of bucket d, i.e. the start of bucket d+1.
	vals = make([]int32, len(codes))
	for r := 0; r+1 < len(off); r++ {
		v := int32(r)
		if rowVals != nil {
			v = rowVals[r]
		}
		for _, c := range codes[off[r]:off[r+1]] {
			d := int(c) - int(base)
			vals[boff[d]] = v
			boff[d]++
		}
	}
	copy(boff[1:], boff[:m])
	boff[0] = 0
	return boff, vals
}

// indexFromBuckets builds the index over invert's output, skipping empty
// buckets. Bucket d's key is codeKeys[d], or base+d when codeKeys is nil.
func indexFromBuckets(boff, vals []int32, base int32, codeKeys []int32) *Index {
	m := len(boff) - 1
	nk := 0
	for d := 0; d < m; d++ {
		if boff[d+1] > boff[d] {
			nk++
		}
	}
	ix := &Index{keys: make([]int32, 0, nk), off: make([]int32, 0, nk+1), vals: vals}
	for d := 0; d < m; d++ {
		if boff[d+1] == boff[d] {
			continue
		}
		k := base + int32(d)
		if codeKeys != nil {
			k = codeKeys[d]
		}
		ix.keys = append(ix.keys, k)
		ix.off = append(ix.off, boff[d])
	}
	ix.off = append(ix.off, boff[m])
	ix.addressKeys()
	return ix
}

// mirror returns the index of the same tuples keyed on the other column: a
// counting transposition when the partner values span a compact range, a
// sort of the swapped packed tuples otherwise.
func (ix *Index) mirror() *Index {
	if len(ix.vals) == 0 {
		return &Index{off: []int32{0}}
	}
	lo, hi := ix.vals[0], ix.vals[0]
	for _, v := range ix.vals[1:] {
		lo, hi = min(lo, v), max(hi, v)
	}
	if span := int64(hi) - int64(lo) + 1; compact(span, len(ix.vals)) {
		boff, vals := invert(ix.off, ix.vals, lo, int(span), ix.keys)
		return indexFromBuckets(boff, vals, lo, nil)
	}
	p := make([]uint64, 0, len(ix.vals))
	for i, k := range ix.keys {
		for _, v := range ix.List(i) {
			p = append(p, pack(v, k))
		}
	}
	slices.Sort(p)
	return indexFromPacked(p)
}

// mergeDelta returns ix with the sorted packed run add merged in and the
// tuples of the sorted packed run rem left out; both runs are packed in
// ix's (key, val) orientation. A tuple in both runs is left out. Only the
// keys the runs touch are merged value by value: the lists between them are
// copied over whole, so a small delta costs one copy of ix's arrays.
func mergeDelta(ix *Index, add, rem []uint64) *Index {
	out := &Index{
		keys: make([]int32, 0, len(ix.keys)+len(add)),
		off:  make([]int32, 0, len(ix.keys)+len(add)+1),
		vals: make([]int32, 0, len(ix.vals)+len(add)),
	}
	next := 0 // ix's first key not yet in out
	// copyKeys moves ix's keys next..hi-1 and their lists over whole.
	copyKeys := func(hi int) {
		shift := int32(len(out.vals)) - ix.off[next]
		for _, o := range ix.off[next:hi] {
			out.off = append(out.off, o+shift)
		}
		out.keys = append(out.keys, ix.keys[next:hi]...)
		out.vals = append(out.vals, ix.vals[ix.off[next]:ix.off[hi]]...)
		next = hi
	}
	for len(add) > 0 || len(rem) > 0 {
		var k int32
		switch {
		case len(rem) == 0 || len(add) > 0 && add[0] < rem[0]:
			k, _ = unpack(add[0])
		default:
			k, _ = unpack(rem[0])
		}
		at, found := slices.BinarySearch(ix.keys[next:], k)
		copyKeys(next + at)
		var list []int32
		if found {
			list = ix.List(next)
			next++
		}
		// This key's runs, as values.
		ka, kr := keyRun(add, k), keyRun(rem, k)
		add, rem = add[len(ka):], rem[len(kr):]
		start := len(out.vals)
		for len(list) > 0 || len(ka) > 0 {
			var v int32
			if len(ka) == 0 || len(list) > 0 && list[0] <= runVal(ka[0]) {
				v, list = list[0], list[1:]
			} else {
				v, ka = runVal(ka[0]), ka[1:]
			}
			if n := len(out.vals); n > start && out.vals[n-1] == v {
				continue // already present, or added twice
			}
			for len(kr) > 0 && runVal(kr[0]) < v {
				kr = kr[1:]
			}
			if len(kr) > 0 && runVal(kr[0]) == v {
				continue
			}
			out.vals = append(out.vals, v)
		}
		if len(out.vals) > start {
			out.keys = append(out.keys, k)
			out.off = append(out.off, int32(start))
		}
	}
	copyKeys(len(ix.keys))
	out.off = append(out.off, int32(len(out.vals)))
	out.addressKeys()
	return out
}

// keyRun returns the leading tuples of the sorted packed run p whose key is
// k.
func keyRun(p []uint64, k int32) []uint64 {
	n := 0
	for n < len(p) && p[n]>>32 == pack(k, 0)>>32 {
		n++
	}
	return p[:n]
}

// runVal returns the value half of a packed tuple.
func runVal(p uint64) int32 {
	_, v := unpack(p)
	return v
}
