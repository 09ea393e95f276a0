package tuples

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// TestTableAgainstStringMap drives a Table and a map[string] reference with
// the same seeded stream of inserts and lookups, for every width from 0 to
// 5: small value ranges force duplicates, negative values exercise the sign
// handling of the hash, and the stream is long enough to double the slot
// table and the arena several times. Ordinals, freshness, Find of absent
// keys and the stability of At/Rows across growth must all match.
func TestTableAgainstStringMap(t *testing.T) {
	for k := 0; k <= 5; k++ {
		rng := rand.New(rand.NewSource(int64(24 + k)))
		tab := NewTable(k)
		ref := map[string]int{}
		var members [][]int32 // reference copies, by ordinal
		var early [][]int32   // rows handed out before later growth
		ps := make([]int32, k)
		for step := 0; step < 6000; step++ {
			for j := range ps {
				ps[j] = int32(rng.Intn(15) - 7)
			}
			key := fmt.Sprint(ps)
			want, present := ref[key]
			if got := tab.Find(ps); present && got != want || !present && got != -1 {
				t.Fatalf("k=%d step %d: Find(%v) = %d, want present=%v ordinal %d", k, step, ps, got, present, want)
			}
			got, fresh := tab.Insert(ps)
			if fresh == present {
				t.Fatalf("k=%d step %d: Insert(%v) fresh=%v, reference present=%v", k, step, ps, fresh, present)
			}
			if !present {
				want = len(ref)
				ref[key] = want
				members = append(members, slices.Clone(ps))
			}
			if got != want {
				t.Fatalf("k=%d step %d: Insert(%v) ordinal %d, want %d", k, step, ps, got, want)
			}
			if step == 40 {
				early = tab.Rows()
			}
		}
		if tab.Len() != len(ref) {
			t.Fatalf("k=%d: Len = %d, want %d", k, tab.Len(), len(ref))
		}
		rows := tab.Rows()
		if rows == nil || len(rows) != len(members) {
			t.Fatalf("k=%d: Rows() has %d rows (nil=%v), want %d", k, len(rows), rows == nil, len(members))
		}
		for m, want := range members {
			if !slices.Equal(rows[m], want) || !slices.Equal(tab.At(m), want) {
				t.Fatalf("k=%d: member %d = %v / %v, want %v", k, m, rows[m], tab.At(m), want)
			}
		}
		for m, r := range early {
			if !slices.Equal(r, members[m]) {
				t.Fatalf("k=%d: row %d handed out before growth now reads %v, want %v", k, m, r, members[m])
			}
		}
		if k >= 2 && len(ref) < 200 {
			t.Fatalf("k=%d: only %d distinct tuples; the stream no longer forces growth", k, len(ref))
		}
	}
}

// TestTableGrowth inserts enough tuples to grow the slot table and the arena
// several times and checks membership survives every re-seating.
func TestTableGrowth(t *testing.T) {
	s := NewTable(2)
	const n = 5000
	for i := int32(0); i < n; i++ {
		if m, fresh := s.Insert([]int32{i, -i}); !fresh || m != int(i) {
			t.Fatalf("tuple %d: first insert gave ordinal %d fresh=%v", i, m, fresh)
		}
	}
	for i := int32(0); i < n; i++ {
		ps := []int32{i, -i}
		if m, fresh := s.InsertHashed(Hash(ps), ps); fresh || m != int(i) {
			t.Fatalf("tuple %d lost after growth (ordinal %d fresh=%v)", i, m, fresh)
		}
		if got := s.At(int(i)); got[0] != i || got[1] != -i {
			t.Fatalf("member %d = %v", i, got)
		}
	}
	if s.Len() != n {
		t.Fatalf("size = %d, want %d", s.Len(), n)
	}
	if s.Find([]int32{n, -n}) != -1 {
		t.Fatal("absent tuple found")
	}
}

// TestTableKeysDistinct: permuted tuples and tuples differing only in where
// a negative value sits are different members.
func TestTableKeysDistinct(t *testing.T) {
	s := NewTable(2)
	for i, ps := range [][]int32{{1, 2}, {2, 1}, {-1, 0}, {0, -1}} {
		if m, fresh := s.Insert(ps); !fresh || m != i {
			t.Fatalf("Insert(%v) = %d, fresh=%v; want a new member %d", ps, m, fresh, i)
		}
	}
}

// TestZeroWidth: a zero-column tuple is a legal member — boolean bags and
// the cross-product seed are zero-column rows.
func TestZeroWidth(t *testing.T) {
	s := NewTable(0)
	if s.Find(nil) != -1 {
		t.Fatal("empty table finds the empty tuple")
	}
	if m, fresh := s.Insert(nil); !fresh || m != 0 {
		t.Fatalf("first empty tuple: ordinal %d fresh=%v", m, fresh)
	}
	if m, fresh := s.Insert([]int32{}); fresh || m != 0 {
		t.Fatalf("second empty tuple: ordinal %d fresh=%v", m, fresh)
	}
	if rows := s.Rows(); len(rows) != 1 || len(rows[0]) != 0 {
		t.Fatalf("Rows() = %v, want one empty row", rows)
	}
	a := NewArena[int64](0)
	for i := 0; i < 100; i++ {
		if r := a.Alloc(); len(r) != 0 {
			t.Fatalf("zero-width Alloc returned %v", r)
		}
	}
	if a.Len() != 100 || len(a.Rows()) != 100 {
		t.Fatalf("zero-width arena holds %d rows", a.Len())
	}
}

// TestBlock: n zeroed rows of width k, each capped at its width, never nil.
func TestBlock(t *testing.T) {
	for _, k := range []int{0, 1, 3} {
		for _, n := range []int{0, 1, 100} {
			rows := Block[int64](n, k)
			if rows == nil || len(rows) != n {
				t.Fatalf("Block(%d, %d) has %d rows (nil=%v)", n, k, len(rows), rows == nil)
			}
			for i, r := range rows {
				if len(r) != k || cap(r) != k || slices.ContainsFunc(r, func(v int64) bool { return v != 0 }) {
					t.Fatalf("Block(%d, %d) row %d = %v (cap %d)", n, k, i, r, cap(r))
				}
			}
		}
	}
	rows := Block[int32](3, 2)
	rows[0] = append(rows[0], 9)
	if rows[1][0] != 0 {
		t.Fatal("append to row 0 reached row 1")
	}
}

// TestArenaRowsDoNotOverlap: appending to a row must not reach its
// neighbour, and rows stay where they are while the arena grows.
func TestArenaRowsDoNotOverlap(t *testing.T) {
	a := NewArena[int64](3)
	first := a.Alloc()
	first[0], first[1], first[2] = 1, 2, 3
	for i := 0; i < 1000; i++ {
		r := a.Alloc()
		r[0] = int64(i)
	}
	_ = append(first, 99)
	if got := a.At(1); got[0] != 0 {
		t.Fatalf("append to row 0 overwrote row 1: %v", got)
	}
	if &a.At(0)[0] != &first[0] {
		t.Fatal("row 0 moved during growth")
	}
	if rows := NewArena[int32](2).Rows(); rows == nil || len(rows) != 0 {
		t.Fatalf("empty arena Rows() = %v (nil=%v), want empty non-nil", rows, rows == nil)
	}
}
