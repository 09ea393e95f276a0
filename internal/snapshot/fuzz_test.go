package snapshot

import (
	"bytes"
	"testing"

	"repro/internal/relation"
)

// FuzzDecode throws arbitrary bytes at the snapshot codec and the manifest
// parser: recovery reads these files off a disk that just failed, so they
// must reject corruption with an error — never panic, never hang. Valid
// encodings must round-trip.
func FuzzDecode(f *testing.F) {
	// Seed with real encodings (and the manifest, via the multiplexing
	// first byte) so the fuzzer starts from structurally valid inputs.
	st := &State{
		AppliedLSN: 12,
		Relations: []Relation{
			{Name: "R", Pairs: []relation.Pair{{X: 1, Y: 2}, {X: 2, Y: 3}, {X: -1, Y: 7}}},
			{Name: "S", Pairs: []relation.Pair{{X: 4, Y: 5}}},
		},
		Views: []View{{
			Name: "V", Text: "V(x, z) :- R(x, y), S(y, z)", Incremental: true,
			Width: 2, Vals: []int32{1, 5}, Counts: []int64{2},
		}},
	}
	f.Add(append([]byte{0}, Encode(st)...))
	f.Add(append([]byte{0}, Encode(&State{})...))
	// The decode branches of a view's entries: several of one arity, a
	// zero-width entry, and arities that disagree (rejected).
	f.Add(append([]byte{0}, Encode(&State{Views: []View{{
		Name: "V", Text: "V(x, z) :- R(x, y), S(y, z)", Incremental: true,
		Width: 2, Vals: []int32{1, 5, -4, 0, 9, 9}, Counts: []int64{2, 1, 7},
	}}})...))
	f.Add(append([]byte{0}, Encode(&State{Views: []View{{
		Name: "B", Text: "B() :- R(x, y), S(y, z)", Incremental: true, Counts: []int64{4},
	}}})...))
	f.Add(append([]byte{0}, mixedArityImage()...))
	f.Add(append([]byte{1}, []byte(`{"snapshot":"snap-0000000000000007.snap","applied_lsn":7}`)...))
	f.Add(append([]byte{1}, []byte(`{"snapshot":"../escape.snap"}`)...))
	f.Add([]byte{0})
	f.Add([]byte{1})

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		// First byte steers the target, the rest is the payload.
		payload := data[1:]
		if data[0]&1 == 0 {
			st, err := Decode(payload)
			if err != nil {
				return
			}
			// Whatever decodes must re-encode to a decodable equal state.
			again, err := Decode(Encode(st))
			if err != nil {
				t.Fatalf("re-decode of valid state failed: %v", err)
			}
			if len(again.Relations) != len(st.Relations) || len(again.Views) != len(st.Views) {
				t.Fatalf("round-trip changed shape: %d/%d relations, %d/%d views",
					len(again.Relations), len(st.Relations), len(again.Views), len(st.Views))
			}
			return
		}
		m, err := ParseManifest(payload)
		if err != nil {
			return
		}
		// Accepted manifests must carry a bare snapshot file name — a path
		// that escapes the data dir must have been rejected.
		if m.Snapshot == "" || bytes.ContainsAny([]byte(m.Snapshot), "/\\") {
			t.Fatalf("ParseManifest accepted escaping snapshot name %q", m.Snapshot)
		}
	})
}
