package relation

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"slices"
)

// Columnar pair codec: the compact binary encoding of a full relation image
// used by the durability layer (WAL register records and snapshot
// checkpoints). Pairs must be sorted by (x, y) with duplicates removed —
// exactly the order Pairs() re-materializes — which makes the X column a
// non-decreasing sequence of small deltas and the Y column strictly
// increasing within each run, so both compress to one or two varint bytes
// per tuple on realistic graphs (vs 8 fixed bytes in the row format of
// io.go). DecodePairs rejects any byte stream that does not decode to a
// strictly (x, y)-sorted duplicate-free list, so a decoded image can go
// straight to FromPairs, which indexes sorted input without sorting it.

// maxEncodedPairs bounds a decoded image; counts beyond it are treated as
// corruption rather than attempted as one giant allocation.
const maxEncodedPairs = 1 << 32

// AppendPairs appends the columnar encoding of ps to dst and returns it. ps
// must be sorted by (x, y) and duplicate-free (as Pairs() returns); AppendPairs
// sorts a copy if it is not, so callers never produce an undecodable image.
func AppendPairs(dst []byte, ps []Pair) []byte {
	if !slices.IsSortedFunc(ps, func(a, b Pair) int { return cmp.Compare(pack(a.X, a.Y), pack(b.X, b.Y)) }) {
		ps = FromPairs("", ps).Pairs()
	}
	dst = binary.AppendUvarint(dst, uint64(len(ps)))
	var prev Pair
	for i, p := range ps {
		if i == 0 {
			dst = binary.AppendVarint(dst, int64(p.X))
			dst = binary.AppendVarint(dst, int64(p.Y))
		} else if p.X == prev.X {
			// Same run: y strictly ascends, store the gap (≥ 1). Deltas are
			// computed in int64 — an int32 subtraction would wrap for gaps
			// wider than half the domain (e.g. min→max int32).
			dst = binary.AppendUvarint(dst, 0)
			dst = binary.AppendUvarint(dst, uint64(int64(p.Y)-int64(prev.Y)))
		} else {
			// New run: store the x advance (≥ 1) and y absolute (zigzag).
			dst = binary.AppendUvarint(dst, uint64(int64(p.X)-int64(prev.X)))
			dst = binary.AppendVarint(dst, int64(p.Y))
		}
		prev = p
	}
	return dst
}

// DecodePairs consumes one columnar image from b, returning the decoded
// pairs and the remaining bytes. It errors (never panics) on truncated or
// corrupt input, including any encoding that would decode to an unsorted or
// duplicated pair list, so FromPairs indexes the result in linear time.
func DecodePairs(b []byte) ([]Pair, []byte, error) {
	n, used := binary.Uvarint(b)
	if used <= 0 {
		return nil, b, fmt.Errorf("relation: truncated pair count")
	}
	b = b[used:]
	if n > maxEncodedPairs {
		return nil, b, fmt.Errorf("relation: implausible pair count %d", n)
	}
	if n == 0 {
		return nil, b, nil
	}
	ps := make([]Pair, 0, int(min(n, 1<<16)))
	var prev Pair
	for i := uint64(0); i < n; i++ {
		var p Pair
		if i == 0 {
			x, ux := binary.Varint(b)
			if ux <= 0 {
				return nil, b, fmt.Errorf("relation: truncated pair 0")
			}
			b = b[ux:]
			y, uy := binary.Varint(b)
			if uy <= 0 {
				return nil, b, fmt.Errorf("relation: truncated pair 0")
			}
			b = b[uy:]
			if !inInt32(x) || !inInt32(y) {
				return nil, b, fmt.Errorf("relation: pair 0 out of int32 range")
			}
			p = Pair{X: int32(x), Y: int32(y)}
		} else {
			dx, ux := binary.Uvarint(b)
			if ux <= 0 {
				return nil, b, fmt.Errorf("relation: truncated pair %d of %d", i, n)
			}
			b = b[ux:]
			if dx == 0 {
				dy, uy := binary.Uvarint(b)
				if uy <= 0 {
					return nil, b, fmt.Errorf("relation: truncated pair %d of %d", i, n)
				}
				b = b[uy:]
				if dy == 0 {
					return nil, b, fmt.Errorf("relation: duplicate pair %d", i)
				}
				if dy > 1<<32 {
					// int64(dy) would wrap negative, decoding to an unsorted
					// pair list; no valid int32 gap is this wide.
					return nil, b, fmt.Errorf("relation: pair %d gap overflow", i)
				}
				y := int64(prev.Y) + int64(dy)
				if !inInt32(y) {
					return nil, b, fmt.Errorf("relation: pair %d y overflow", i)
				}
				p = Pair{X: prev.X, Y: int32(y)}
			} else {
				if dx > 1<<32 {
					return nil, b, fmt.Errorf("relation: pair %d gap overflow", i)
				}
				x := int64(prev.X) + int64(dx)
				y, uy := binary.Varint(b)
				if uy <= 0 {
					return nil, b, fmt.Errorf("relation: truncated pair %d of %d", i, n)
				}
				b = b[uy:]
				if !inInt32(x) || !inInt32(y) {
					return nil, b, fmt.Errorf("relation: pair %d out of int32 range", i)
				}
				p = Pair{X: int32(x), Y: int32(y)}
			}
		}
		ps = append(ps, p)
		prev = p
	}
	return ps, b, nil
}

// inInt32 reports whether v fits an int32.
func inInt32(v int64) bool { return v >= -1<<31 && v <= 1<<31-1 }
