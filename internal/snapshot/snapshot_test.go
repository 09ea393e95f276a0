package snapshot

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/relation"
)

// sampleState is the state testdata/parent.snap was encoded from: a
// zero-width incremental view with one entry, an incremental view with no
// entries, a two-wide one holding a negative value, and a refresh view.
func sampleState() *State {
	return &State{
		AppliedLSN: 42,
		Relations: []Relation{
			{Name: "R", Pairs: []relation.Pair{{X: 1, Y: 2}, {X: 1, Y: 3}, {X: 5, Y: 1}}},
			{Name: "S", Pairs: nil},
		},
		Views: []View{
			{Name: "vb", Text: "VB() :- R(x, y), S(y, z)", Incremental: true, Counts: []int64{3}},
			{Name: "ve", Text: "VE(x, z) :- S(x, y), R(y, z)", Incremental: true},
			{Name: "vp", Text: "VP(x, z) :- R(x, y), S(y, z)", Incremental: true,
				Width: 2, Vals: []int32{1, 7, -3, 0}, Counts: []int64{2, 9}},
			{Name: "vr", Text: "V(x, x) :- R(x, x)"},
		},
	}
}

// mixedArityImage is a CRC-valid image whose one view holds a two-wide and
// a one-wide entry: the codec's per-entry arity can say so, a store cannot.
func mixedArityImage() []byte {
	b := append([]byte(nil), magic[:]...)
	b = binary.AppendUvarint(b, 1) // applied LSN
	b = binary.AppendUvarint(b, 0) // relations
	b = binary.AppendUvarint(b, 1) // views
	b = appendString(b, "vp")
	b = appendString(b, "VP(x, z) :- R(x, y), S(y, z)")
	b = append(b, 1)               // incremental
	b = binary.AppendUvarint(b, 2) // entries
	for _, e := range [][]int64{{1, 7, 2}, {3, 1}} {
		b = binary.AppendUvarint(b, uint64(len(e)-1))
		for _, x := range e {
			b = binary.AppendVarint(b, x)
		}
	}
	return binary.LittleEndian.AppendUint32(b, crc32.Checksum(b, crcTable))
}

// TestDecodesParentImage pins the encoding: testdata/parent.snap was
// written by the codec that stored a view's entries as separate tuples, and
// it must decode into the flat form and re-encode to the same bytes.
func TestDecodesParentImage(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("testdata", "parent.snap"))
	if err != nil {
		t.Fatal(err)
	}
	got, err := Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	if want := sampleState(); !reflect.DeepEqual(got, want) {
		t.Fatalf("decoded state:\n got %+v\nwant %+v", got, want)
	}
	if again := Encode(got); !bytes.Equal(again, data) {
		t.Fatalf("re-encoding differs from the parent image:\n got %x\nwant %x", again, data)
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	st := sampleState()
	got, err := Decode(Encode(st))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, st) {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, st)
	}
}

func TestDecodeRejectsCorruption(t *testing.T) {
	if _, err := Decode(mixedArityImage()); err == nil || !strings.Contains(err.Error(), "arity 1, earlier entries 2") {
		t.Fatalf("a view with mixed entry arities: err = %v", err)
	}
	data := Encode(sampleState())
	for cut := 0; cut < len(data); cut++ {
		if _, err := Decode(data[:cut]); err == nil {
			t.Fatalf("truncation at %d decoded cleanly", cut)
		}
	}
	for i := range data {
		mut := append([]byte(nil), data...)
		mut[i] ^= 0xff
		if _, err := Decode(mut); err == nil {
			t.Fatalf("bit flip at %d slipped past the checksum", i)
		}
	}
}

func TestWriteLoadManifestCycle(t *testing.T) {
	dir := t.TempDir()
	if _, ok, err := LoadManifest(dir); err != nil || ok {
		t.Fatalf("fresh dir: manifest ok=%v err=%v", ok, err)
	}
	st := sampleState()
	name, size, err := WriteFS(nil, dir, st)
	if err != nil {
		t.Fatal(err)
	}
	if fi, err := os.Stat(filepath.Join(dir, name)); err != nil || fi.Size() != int64(size) {
		t.Fatalf("reported size %d, file %v (%v)", size, fi, err)
	}
	if err := WriteManifestFS(nil, dir, Manifest{Snapshot: name, AppliedLSN: st.AppliedLSN}); err != nil {
		t.Fatal(err)
	}
	m, ok, err := LoadManifest(dir)
	if err != nil || !ok {
		t.Fatalf("manifest ok=%v err=%v", ok, err)
	}
	got, err := Load(dir, m)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, st) {
		t.Fatal("loaded state differs from written state")
	}
	// A second checkpoint supersedes; prune removes the old image.
	st2 := sampleState()
	st2.AppliedLSN = 99
	name2, _, err := WriteFS(nil, dir, st2)
	if err != nil {
		t.Fatal(err)
	}
	if err := WriteManifestFS(nil, dir, Manifest{Snapshot: name2, AppliedLSN: 99}); err != nil {
		t.Fatal(err)
	}
	if err := PruneFS(nil, dir, name2); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, name)); !os.IsNotExist(err) {
		t.Fatalf("old image survived prune: %v", err)
	}
	if _, err := os.Stat(filepath.Join(dir, name2)); err != nil {
		t.Fatalf("new image pruned: %v", err)
	}
	// No temp files left behind.
	ents, _ := os.ReadDir(dir)
	for _, e := range ents {
		if e.Name() != name2 && e.Name() != "MANIFEST.json" {
			t.Fatalf("stray file %q", e.Name())
		}
	}
}

func TestLoadDetectsManifestMismatch(t *testing.T) {
	dir := t.TempDir()
	st := sampleState()
	name, _, err := WriteFS(nil, dir, st)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Load(dir, &Manifest{Snapshot: name, AppliedLSN: st.AppliedLSN + 1}); err == nil {
		t.Fatal("lsn mismatch loaded cleanly")
	}
}
