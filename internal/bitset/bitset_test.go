package bitset

import (
	"math/bits"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestSetTest(t *testing.T) {
	b := New(200)
	for _, i := range []int{0, 1, 63, 64, 65, 127, 128, 199} {
		if b.Test(i) {
			t.Fatalf("bit %d set in fresh bitset", i)
		}
		b.Set(i)
		if !b.Test(i) {
			t.Fatalf("bit %d not set after Set", i)
		}
	}
	if got := b.Count(); got != 8 {
		t.Fatalf("Count = %d, want 8", got)
	}
}

func TestReset(t *testing.T) {
	b := New(130)
	for i := 0; i < 130; i += 3 {
		b.Set(i)
	}
	b.Reset()
	if b.Count() != 0 {
		t.Fatalf("Count after Reset = %d, want 0", b.Count())
	}
	if b.Len() != 130 {
		t.Fatalf("Len after Reset = %d, want 130", b.Len())
	}
}

func TestZeroValue(t *testing.T) {
	var b Bitset
	if b.Count() != 0 || b.Len() != 0 {
		t.Fatal("zero value not empty")
	}
}

func TestNewNegative(t *testing.T) {
	b := New(-5)
	if b.Len() != 0 {
		t.Fatalf("New(-5).Len() = %d, want 0", b.Len())
	}
}

func TestAndCountAgainstNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(500)
		a, b := New(n), New(n)
		ref := map[int]bool{}
		for i := 0; i < n; i++ {
			if rng.Intn(2) == 0 {
				a.Set(i)
				ref[i] = true
			}
			if rng.Intn(2) == 0 {
				b.Set(i)
				if ref[i] {
					ref[i] = true
				}
			} else {
				delete(ref, i)
			}
		}
		want := 0
		for i := 0; i < n; i++ {
			if a.Test(i) && b.Test(i) {
				want++
			}
		}
		if got := a.AndCount(b); got != want {
			t.Fatalf("trial %d: AndCount = %d, want %d", trial, got, want)
		}
		if got := a.Intersects(b); got != (want > 0) {
			t.Fatalf("trial %d: Intersects = %v, want %v", trial, got, want > 0)
		}
	}
}

func TestAndCountDifferentLengths(t *testing.T) {
	a := New(64)
	b := New(1000)
	a.Set(3)
	a.Set(63)
	b.Set(3)
	b.Set(999)
	if got := a.AndCount(b); got != 1 {
		t.Fatalf("AndCount across lengths = %d, want 1", got)
	}
	if got := b.AndCount(a); got != 1 {
		t.Fatalf("AndCount reversed = %d, want 1", got)
	}
}

func TestForEachAndToSlice(t *testing.T) {
	b := New(300)
	want := []int{0, 5, 64, 100, 255, 299}
	for _, i := range want {
		b.Set(i)
	}
	var got []int
	b.ForEach(func(i int) { got = append(got, i) })
	if len(got) != len(want) {
		t.Fatalf("ForEach visited %d bits, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("ForEach visit %d = %d, want %d", i, got[i], want[i])
		}
	}
}

func TestEqual(t *testing.T) {
	a, b := New(100), New(164)
	for _, i := range []int{3, 64, 99} {
		a.Set(i)
		b.Set(i)
	}
	if !a.Equal(b) {
		t.Fatal("equal sets reported unequal")
	}
	b.Set(150)
	if a.Equal(b) {
		t.Fatal("unequal sets reported equal (extra high bit)")
	}
}

func TestCloneIndependence(t *testing.T) {
	a := New(64)
	a.Set(1)
	c := a.Clone()
	c.Set(2)
	if a.Test(2) {
		t.Fatal("Clone shares storage with original")
	}
}

// Property: for random bit patterns, Count(a ∩ b) computed by AndCount
// matches counting the materialized intersection.
func TestQuickAndCountMatchesMaterialized(t *testing.T) {
	f := func(wa, wb []uint64) bool {
		n := len(wa)
		if len(wb) < n {
			n = len(wb)
		}
		if n == 0 {
			return true
		}
		a := FromWords(append([]uint64(nil), wa[:n]...), n*64)
		b := FromWords(append([]uint64(nil), wb[:n]...), n*64)
		m := New(n * 64)
		for i := range m.words {
			m.words[i] = a.words[i] & b.words[i]
		}
		return a.AndCount(b) == m.Count()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkAndCount4096(b *testing.B) {
	x, y := New(4096), New(4096)
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 4096; i++ {
		if rng.Intn(3) == 0 {
			x.Set(i)
		}
		if rng.Intn(3) == 0 {
			y.Set(i)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = x.AndCount(y)
	}
}

// The accessors below are read only by these tests, so they live here.

// Test reports whether bit i is set.
func (b *Bitset) Test(i int) bool {
	return b.words[i/wordBits]&(1<<uint(i%wordBits)) != 0
}

// Len returns the capacity of the bitset in bits.
func (b *Bitset) Len() int { return b.n }

// Count returns the number of set bits.
func (b *Bitset) Count() int {
	c := 0
	for _, w := range b.words {
		c += bits.OnesCount64(w)
	}
	return c
}

// Clone returns a deep copy of b.
func (b *Bitset) Clone() *Bitset {
	w := make([]uint64, len(b.words))
	copy(w, b.words)
	return &Bitset{words: w, n: b.n}
}

// Equal reports whether b and o contain exactly the same set bits.
// Capacities may differ; trailing bits beyond the shorter capacity must be
// zero for the sets to be equal.
func (b *Bitset) Equal(o *Bitset) bool {
	wa, wb := b.words, o.words
	if len(wa) > len(wb) {
		wa, wb = wb, wa
	}
	for i := range wa {
		if wa[i] != wb[i] {
			return false
		}
	}
	for _, w := range wb[len(wa):] {
		if w != 0 {
			return false
		}
	}
	return true
}
