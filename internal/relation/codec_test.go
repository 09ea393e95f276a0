package relation

import (
	"math/rand"
	"reflect"
	"testing"
)

// TestCodecDifferential round-trips random pair sets through the columnar
// codec and checks FromPairs on the decoded (sorted) image against FromPairs
// on the raw input.
func TestCodecDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 200; trial++ {
		n := rng.Intn(300)
		dom := int32(1 + rng.Intn(50))
		ps := make([]Pair, n)
		for i := range ps {
			x, y := rng.Int31n(dom), rng.Int31n(dom)
			if trial%7 == 0 { // exercise negative values too
				x, y = x-dom/2, y-dom/2
			}
			ps[i] = Pair{X: x, Y: y}
		}
		want := FromPairs("r", ps)
		enc := AppendPairs(nil, want.Pairs())
		dec, rest, err := DecodePairs(enc)
		if err != nil {
			t.Fatalf("trial %d: decode: %v", trial, err)
		}
		if len(rest) != 0 {
			t.Fatalf("trial %d: %d undecoded bytes", trial, len(rest))
		}
		got := FromPairs("r", dec)
		if !reflect.DeepEqual(got.Pairs(), want.Pairs()) {
			t.Fatalf("trial %d: pair mismatch after round trip", trial)
		}
		if got.Size() != want.Size() || got.NumX() != want.NumX() || got.NumY() != want.NumY() {
			t.Fatalf("trial %d: index shape mismatch", trial)
		}
		// The mirror index must agree too (the builder sorts it itself).
		for i := 0; i < want.ByY().NumKeys(); i++ {
			y := want.ByY().Key(i)
			if !reflect.DeepEqual(got.ByY().Lookup(y), want.ByY().Lookup(y)) {
				t.Fatalf("trial %d: byY list mismatch at y=%d", trial, y)
			}
		}
	}
}

// TestCodecUnsortedInputCanonicalized feeds AppendPairs an unsorted,
// duplicated list and expects the canonical sorted image.
func TestCodecUnsortedInputCanonicalized(t *testing.T) {
	ps := []Pair{{3, 1}, {1, 2}, {3, 1}, {1, 1}}
	enc := AppendPairs(nil, ps)
	dec, _, err := DecodePairs(enc)
	if err != nil {
		t.Fatal(err)
	}
	want := []Pair{{1, 1}, {1, 2}, {3, 1}}
	if !reflect.DeepEqual(dec, want) {
		t.Fatalf("decoded %v, want %v", dec, want)
	}
}

// TestCodecRejectsCorruption truncates and bit-flips valid encodings: every
// truncation must error; flips must error or decode (never panic), and a
// clean decode must still be strictly sorted.
func TestCodecRejectsCorruption(t *testing.T) {
	var ps []Pair
	for x := int32(0); x < 20; x++ {
		for y := int32(0); y < 10; y += 2 {
			ps = append(ps, Pair{X: x, Y: y})
		}
	}
	enc := AppendPairs(nil, ps)
	for cut := 1; cut < len(enc); cut++ {
		if _, _, err := DecodePairs(enc[:cut]); err == nil {
			t.Fatalf("truncation at %d decoded cleanly", cut)
		}
	}
	for i := range enc {
		mut := append([]byte(nil), enc...)
		mut[i] ^= 0xff
		dec, _, err := DecodePairs(mut)
		if err != nil {
			continue
		}
		for j := 1; j < len(dec); j++ {
			if pack(dec[j-1].X, dec[j-1].Y) >= pack(dec[j].X, dec[j].Y) {
				t.Fatalf("flip at %d decoded to unsorted pairs", i)
			}
		}
	}
}

// TestCodecExtremeGaps round-trips pairs whose deltas exceed int32 range
// (min→max int32 in one run): the codec must compute gaps in int64.
func TestCodecExtremeGaps(t *testing.T) {
	ps := []Pair{
		{X: -1 << 31, Y: -1 << 31},
		{X: -1 << 31, Y: 1<<31 - 1}, // y gap = 2^32-1 within one run
		{X: 1<<31 - 1, Y: 0},        // x gap = 2^32-1 across runs
	}
	enc := AppendPairs(nil, ps)
	dec, rest, err := DecodePairs(enc)
	if err != nil || len(rest) != 0 {
		t.Fatalf("extreme gaps: %v (rest %d)", err, len(rest))
	}
	if !reflect.DeepEqual(dec, ps) {
		t.Fatalf("decoded %v, want %v", dec, ps)
	}
}

// TestCodecEmpty round-trips the empty relation.
func TestCodecEmpty(t *testing.T) {
	enc := AppendPairs(nil, nil)
	dec, rest, err := DecodePairs(enc)
	if err != nil || len(dec) != 0 || len(rest) != 0 {
		t.Fatalf("empty round trip: %v %v %v", dec, rest, err)
	}
	if FromPairs("e", nil).Size() != 0 {
		t.Fatal("empty FromPairs")
	}
}
