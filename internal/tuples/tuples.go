// Package tuples is the one store of fixed-width integer tuples above the
// kernels: a Block holds a row set whose size is known before it is written,
// an Arena keeps tuples of a not-yet-known count back to back, and a Table is
// the set of int32 tuples every dedup, group-by and hash-join index in the
// engine is built from. Tuples are compared and hashed as integers — nothing
// is boxed per tuple or re-encoded into a string — which is Section 6's
// "deduplicate by addressing" applied to every row path, not only the star's.
//
// The rule for row producers: one that knows its row count before it starts
// (a projection, a cross product, an index walk) writes one Block — a flat
// backing array and one header slice, the least a [][]T can cost. The Arena
// is for the producers that cannot know it: dedup tables, star collectors,
// bag joins. A query's last fold writes neither: its kernel output (grouped
// z positions per x) already is the answer, and the head projector reads it
// in place.
//
// A member's ordinal (its insertion rank, from 0) is stable, so a map keyed
// by a tuple is a Table plus a slice indexed by ordinal. Width 0 is a valid
// width: boolean bags and the cross-product seed are zero-column rows, and a
// width-0 Table holds at most the one empty tuple.
//
// Neither type is safe for concurrent use; callers that share one lock it.
package tuples

import (
	"math/bits"
	"slices"
)

// Block returns n zeroed k-wide tuples cut from one backing array: two
// allocations for any n. Each tuple's capacity is its length, so appending
// to one cannot reach the next. The result is never nil.
func Block[T int32 | int64](n, k int) [][]T {
	flat := make([]T, n*k)
	rows := make([][]T, n)
	for i := range rows {
		rows[i] = flat[i*k : (i+1)*k : (i+1)*k]
	}
	return rows
}

// Arena stores fixed-width tuples back to back in chunks of doubling size, so
// a stored tuple never moves and storage grows without copying. Rows handed
// out are views into the chunks: n rows cost one header slice and O(log n)
// chunks instead of n objects, and holding one row keeps its chunk alive.
type Arena[T int32 | int64] struct {
	k, n   int
	chunks [][]T
}

// NewArena returns an empty arena of k-wide tuples.
func NewArena[T int32 | int64](k int) *Arena[T] { return &Arena[T]{k: k} }

// arenaFirst is the tuple capacity of an arena's first chunk; chunk c ≥ 1
// holds arenaFirst<<(c-1) tuples, starting at ordinal arenaFirst<<(c-1).
const arenaFirst = 16

// locate returns the chunk and the slot within it of tuple ordinal m.
func (a *Arena[T]) locate(m int) (c, slot int) {
	if c = bits.Len(uint(m) / arenaFirst); c == 0 {
		return 0, m
	}
	return c, m - arenaFirst<<(c-1)
}

// Len returns the number of tuples stored.
func (a *Arena[T]) Len() int { return a.n }

// Alloc returns the zeroed storage of a new tuple, whose ordinal is the
// previous Len.
func (a *Arena[T]) Alloc() []T {
	c, slot := a.locate(a.n)
	if c == len(a.chunks) {
		a.chunks = append(a.chunks, make([]T, max(arenaFirst, a.n)*a.k))
	}
	a.n++
	return a.chunks[c][slot*a.k : (slot+1)*a.k : (slot+1)*a.k]
}

// At returns tuple ordinal m. Its capacity is its length, so appending to it
// cannot reach the next tuple.
func (a *Arena[T]) At(m int) []T {
	c, slot := a.locate(m)
	return a.chunks[c][slot*a.k : (slot+1)*a.k : (slot+1)*a.k]
}

// Rows returns every tuple in ordinal order (never nil).
func (a *Arena[T]) Rows() [][]T {
	rows := make([][]T, a.n)
	for m := range rows {
		rows[m] = a.At(m)
	}
	return rows
}

// Table is a set of k-wide int32 tuples: open addressing with linear probing
// over the members' ordinals, the members themselves in an arena.
type Table struct {
	members Arena[int32]
	slots   []uint32 // member ordinal + 1; 0 = empty; len is a power of two
}

// NewTable returns an empty set of k-wide tuples.
func NewTable(k int) *Table { return &Table{members: Arena[int32]{k: k}} }

// Hash mixes a tuple into 64 well-spread bits.
func Hash(ps []int32) uint64 {
	h := uint64(len(ps))
	for _, p := range ps {
		h = (h ^ uint64(uint32(p))) * 0x9e3779b97f4a7c15
		h ^= h >> 32
	}
	return h
}

// Len returns the number of members.
func (t *Table) Len() int { return t.members.n }

// At returns member ordinal m; the caller must not modify it.
func (t *Table) At(m int) []int32 { return t.members.At(m) }

// Rows returns the members in insertion order (never nil); the caller must
// not modify them while the table is in use.
func (t *Table) Rows() [][]int32 { return t.members.Rows() }

// Insert adds a copy of ps unless it is already a member, and returns the
// member's ordinal and whether it was new.
func (t *Table) Insert(ps []int32) (ordinal int, fresh bool) {
	return t.InsertHashed(Hash(ps), ps)
}

// InsertHashed is Insert for a caller that already holds h = Hash(ps).
func (t *Table) InsertHashed(h uint64, ps []int32) (ordinal int, fresh bool) {
	if 2*(t.members.n+1) > len(t.slots) {
		t.grow()
	}
	i := t.probe(h, ps)
	if m := t.slots[i]; m != 0 {
		return int(m - 1), false
	}
	copy(t.members.Alloc(), ps)
	t.slots[i] = uint32(t.members.n)
	return t.members.n - 1, true
}

// Find returns the ordinal of ps, or -1 if it is not a member.
func (t *Table) Find(ps []int32) int {
	if len(t.slots) == 0 {
		return -1
	}
	return int(t.slots[t.probe(Hash(ps), ps)]) - 1
}

// probe returns the slot holding ps, or the empty slot where it belongs.
func (t *Table) probe(h uint64, ps []int32) uint64 {
	mask := uint64(len(t.slots) - 1)
	for i := h & mask; ; i = (i + 1) & mask {
		if m := t.slots[i]; m == 0 || slices.Equal(t.members.At(int(m-1)), ps) {
			return i
		}
	}
}

// grow doubles the slot table and re-seats every member.
func (t *Table) grow() {
	t.slots = make([]uint32, max(2*len(t.slots), 16))
	mask := uint64(len(t.slots) - 1)
	for m := 0; m < t.members.n; m++ {
		i := Hash(t.members.At(m)) & mask
		for t.slots[i] != 0 {
			i = (i + 1) & mask
		}
		t.slots[i] = uint32(m + 1)
	}
}
