// Package bitset provides fixed-size, 64-bit packed bit vectors.
//
// Bitsets are the low-level substrate for two performance-critical parts of
// the system: the bit-packed boolean matrix product in internal/matrix (the
// pure-Go stand-in for a vectorized GEMM) and the word-level set
// intersections of the EmptyHeaded-like baseline in internal/baseline.
package bitset

import "math/bits"

const wordBits = 64

// Bitset is a fixed-capacity bit vector. The zero value is an empty bitset
// of capacity zero; use New to create one with a given capacity.
type Bitset struct {
	words []uint64
	n     int // capacity in bits
}

// New returns a bitset able to hold n bits, all initially zero.
func New(n int) *Bitset {
	if n < 0 {
		n = 0
	}
	return &Bitset{words: make([]uint64, (n+wordBits-1)/wordBits), n: n}
}

// FromWords wraps an existing word slice as a bitset of capacity n.
// The slice is used directly, not copied; it must have length ≥ ceil(n/64).
func FromWords(words []uint64, n int) *Bitset {
	return &Bitset{words: words, n: n}
}

// Set sets bit i to 1. It panics if i is out of range.
func (b *Bitset) Set(i int) {
	b.words[i/wordBits] |= 1 << uint(i%wordBits)
}

// Reset zeroes every bit, keeping capacity.
func (b *Bitset) Reset() {
	for i := range b.words {
		b.words[i] = 0
	}
}

// AndCount returns |b ∩ o| without materializing the intersection.
// The two bitsets may have different capacities; the shorter prefix is used.
func (b *Bitset) AndCount(o *Bitset) int {
	wa, wb := b.words, o.words
	if len(wb) < len(wa) {
		wa, wb = wb, wa
	}
	c := 0
	// Unrolled by 4: this loop is the inner kernel of the boolean matrix
	// product, so the constant factor matters.
	i := 0
	for ; i+4 <= len(wa); i += 4 {
		c += bits.OnesCount64(wa[i]&wb[i]) +
			bits.OnesCount64(wa[i+1]&wb[i+1]) +
			bits.OnesCount64(wa[i+2]&wb[i+2]) +
			bits.OnesCount64(wa[i+3]&wb[i+3])
	}
	for ; i < len(wa); i++ {
		c += bits.OnesCount64(wa[i] & wb[i])
	}
	return c
}

// Intersects reports whether b and o share any set bit. It short-circuits on
// the first non-zero word, which makes it cheaper than AndCount when only a
// boolean answer is needed (the BSI and 2-path dedup paths).
func (b *Bitset) Intersects(o *Bitset) bool {
	wa, wb := b.words, o.words
	if len(wb) < len(wa) {
		wa, wb = wb, wa
	}
	for i, w := range wa {
		if w&wb[i] != 0 {
			return true
		}
	}
	return false
}

// ForEach calls fn for every set bit in ascending order.
func (b *Bitset) ForEach(fn func(i int)) {
	for wi, w := range b.words {
		for w != 0 {
			tz := bits.TrailingZeros64(w)
			fn(wi*wordBits + tz)
			w &= w - 1
		}
	}
}
