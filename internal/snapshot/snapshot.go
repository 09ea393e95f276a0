// Package snapshot writes and loads checkpoint images of the engine's
// serving state: every registered relation (in the columnar pair codec of
// package relation), every registered view definition, and — for
// incrementally-maintained views — the count-backed store itself, so
// recovery restores views without recomputing them. A snapshot pairs with a
// write-ahead-log position: the MANIFEST records (snapshot file, applied
// LSN), and recovery loads the snapshot then replays the WAL tail after
// that LSN through the normal mutation path.
//
// Snapshots are crash-safe by construction: the image is written to a temp
// file, fsynced, and renamed into place; the manifest (a one-line JSON file,
// also written via temp-file rename) is the commit point. A crash mid-write
// leaves a stale-but-consistent previous checkpoint.
package snapshot

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"time"

	"repro/internal/faultfs"
	"repro/internal/relation"
)

// State is one consistent checkpoint image.
type State struct {
	// AppliedLSN is the WAL position the image reflects: every record with
	// LSN ≤ AppliedLSN is folded in, recovery replays strictly after it.
	AppliedLSN uint64
	// Relations are the registered relations, sorted by name.
	Relations []Relation
	// Views are the registered views, sorted by name.
	Views []View
}

// Relation is one relation image: its name and full sorted contents.
type Relation struct {
	// Name is the catalog name.
	Name string
	// Pairs is the full contents in (x, y) order.
	Pairs []relation.Pair
}

// View is one view image: the only form a counted view store takes outside
// its view, passed as is by checkpoints, recovery and replica bootstrap.
type View struct {
	// Name is the registry name.
	Name string
	// Text is the canonical query text of the definition.
	Text string
	// Incremental marks a view whose counted store is embedded; refresh-mode
	// views persist only their definition and recompute lazily after
	// recovery.
	Incremental bool
	// Width is the store's tuple width (the head arity). An image with no
	// entries records none, so it decodes as 0.
	Width int
	// Vals holds the stored tuples back to back, Width values each.
	Vals []int32
	// Counts is each tuple's support count (number of join witnesses).
	Counts []int64
}

// Manifest is the checkpoint commit record, stored as MANIFEST.json.
type Manifest struct {
	// Snapshot is the image file name within the data dir.
	Snapshot string `json:"snapshot"`
	// AppliedLSN mirrors State.AppliedLSN for quick inspection.
	AppliedLSN uint64 `json:"applied_lsn"`
	// WrittenAt is the RFC3339 checkpoint time.
	WrittenAt string `json:"written_at"`
}

// manifestName is the manifest file within a data dir.
const manifestName = "MANIFEST.json"

// magic heads every snapshot image.
var magic = [8]byte{'J', 'M', 'M', 'S', 'N', 'A', 'P', '1'}

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// limits bound decoded counts so corrupt images fail instead of allocating.
const (
	maxSections = 1 << 24
	maxNameLen  = 1 << 16
	maxTextLen  = 1 << 20
	maxVals     = 1 << 8
)

// FileName returns the image file name for a checkpoint at lsn.
func FileName(lsn uint64) string { return fmt.Sprintf("snap-%016x.snap", lsn) }

// Encode renders the state as one self-checking binary image.
func Encode(st *State) []byte {
	buf := append([]byte(nil), magic[:]...)
	buf = binary.AppendUvarint(buf, st.AppliedLSN)
	buf = binary.AppendUvarint(buf, uint64(len(st.Relations)))
	for _, r := range st.Relations {
		buf = appendString(buf, r.Name)
		buf = relation.AppendPairs(buf, r.Pairs)
	}
	buf = binary.AppendUvarint(buf, uint64(len(st.Views)))
	for _, v := range st.Views {
		buf = appendString(buf, v.Name)
		buf = appendString(buf, v.Text)
		if v.Incremental {
			buf = append(buf, 1)
			buf = binary.AppendUvarint(buf, uint64(len(v.Counts)))
			for i, c := range v.Counts {
				// Per-entry arity keeps the encoding existing images use.
				buf = binary.AppendUvarint(buf, uint64(v.Width))
				for _, val := range v.Vals[i*v.Width : (i+1)*v.Width] {
					buf = binary.AppendVarint(buf, int64(val))
				}
				buf = binary.AppendVarint(buf, c)
			}
		} else {
			buf = append(buf, 0)
		}
	}
	return binary.LittleEndian.AppendUint32(buf, crc32.Checksum(buf, crcTable))
}

// Decode parses and verifies one image.
func Decode(data []byte) (*State, error) {
	if len(data) < len(magic)+4 {
		return nil, fmt.Errorf("snapshot: image too short (%d bytes)", len(data))
	}
	body, sum := data[:len(data)-4], binary.LittleEndian.Uint32(data[len(data)-4:])
	if crc32.Checksum(body, crcTable) != sum {
		return nil, fmt.Errorf("snapshot: checksum mismatch")
	}
	if string(body[:len(magic)]) != string(magic[:]) {
		return nil, fmt.Errorf("snapshot: bad magic %q", body[:len(magic)])
	}
	b := body[len(magic):]
	st := &State{}
	var err error
	if st.AppliedLSN, b, err = decodeUvarint(b); err != nil {
		return nil, fmt.Errorf("snapshot: applied lsn: %w", err)
	}
	nRels, b, err := decodeUvarint(b)
	if err != nil {
		return nil, fmt.Errorf("snapshot: relation count: %w", err)
	}
	if nRels > maxSections {
		return nil, fmt.Errorf("snapshot: implausible relation count %d", nRels)
	}
	for i := uint64(0); i < nRels; i++ {
		var r Relation
		if r.Name, b, err = decodeString(b, maxNameLen); err != nil {
			return nil, fmt.Errorf("snapshot: relation %d name: %w", i, err)
		}
		if r.Pairs, b, err = relation.DecodePairs(b); err != nil {
			return nil, fmt.Errorf("snapshot: relation %q: %w", r.Name, err)
		}
		st.Relations = append(st.Relations, r)
	}
	nViews, b, err := decodeUvarint(b)
	if err != nil {
		return nil, fmt.Errorf("snapshot: view count: %w", err)
	}
	if nViews > maxSections {
		return nil, fmt.Errorf("snapshot: implausible view count %d", nViews)
	}
	for i := uint64(0); i < nViews; i++ {
		var v View
		if v.Name, b, err = decodeString(b, maxNameLen); err != nil {
			return nil, fmt.Errorf("snapshot: view %d name: %w", i, err)
		}
		if v.Text, b, err = decodeString(b, maxTextLen); err != nil {
			return nil, fmt.Errorf("snapshot: view %q text: %w", v.Name, err)
		}
		if len(b) == 0 {
			return nil, fmt.Errorf("snapshot: view %q truncated", v.Name)
		}
		v.Incremental = b[0] == 1
		b = b[1:]
		if v.Incremental {
			var nEnt uint64
			if nEnt, b, err = decodeUvarint(b); err != nil {
				return nil, fmt.Errorf("snapshot: view %q entry count: %w", v.Name, err)
			}
			if nEnt > maxSections {
				return nil, fmt.Errorf("snapshot: view %q: implausible entry count %d", v.Name, nEnt)
			}
			for j := uint64(0); j < nEnt; j++ {
				var nv uint64
				if nv, b, err = decodeUvarint(b); err != nil {
					return nil, fmt.Errorf("snapshot: view %q entry %d: %w", v.Name, j, err)
				}
				if nv > maxVals {
					return nil, fmt.Errorf("snapshot: view %q entry %d: implausible arity %d", v.Name, j, nv)
				}
				if j == 0 {
					// Size both once; a value or count takes a byte or more, so b caps them.
					v.Width = int(nv)
					v.Vals = slices.Grow(v.Vals, min(int(nEnt)*v.Width, len(b)))
					v.Counts = make([]int64, 0, min(int(nEnt), len(b)))
				} else if int(nv) != v.Width {
					return nil, fmt.Errorf("snapshot: view %q entry %d: arity %d, earlier entries %d", v.Name, j, nv, v.Width)
				}
				for range v.Width {
					var val int64
					if val, b, err = decodeVarint(b); err != nil {
						return nil, fmt.Errorf("snapshot: view %q entry %d: %w", v.Name, j, err)
					}
					if val < -1<<31 || val > 1<<31-1 {
						return nil, fmt.Errorf("snapshot: view %q entry %d value overflow", v.Name, j)
					}
					v.Vals = append(v.Vals, int32(val))
				}
				var c int64
				if c, b, err = decodeVarint(b); err != nil {
					return nil, fmt.Errorf("snapshot: view %q entry %d count: %w", v.Name, j, err)
				}
				v.Counts = append(v.Counts, c)
			}
		}
		st.Views = append(st.Views, v)
	}
	if len(b) != 0 {
		return nil, fmt.Errorf("snapshot: %d trailing bytes", len(b))
	}
	return st, nil
}

func appendString(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

func decodeString(b []byte, max int) (string, []byte, error) {
	n, b, err := decodeUvarint(b)
	if err != nil {
		return "", b, err
	}
	if n > uint64(max) {
		return "", b, fmt.Errorf("length %d exceeds limit %d", n, max)
	}
	if uint64(len(b)) < n {
		return "", b, fmt.Errorf("truncated: want %d bytes, have %d", n, len(b))
	}
	return string(b[:n]), b[n:], nil
}

func decodeUvarint(b []byte) (uint64, []byte, error) {
	v, used := binary.Uvarint(b)
	if used <= 0 {
		return 0, b, fmt.Errorf("truncated uvarint")
	}
	return v, b[used:], nil
}

func decodeVarint(b []byte) (int64, []byte, error) {
	v, used := binary.Varint(b)
	if used <= 0 {
		return 0, b, fmt.Errorf("truncated varint")
	}
	return v, b[used:], nil
}

// WriteFS encodes st and atomically installs it in dir as FileName(lsn)
// through fsys (nil means the real filesystem): temp file, fsync, rename,
// directory fsync. It returns the installed file name and the encoded size.
// The manifest is NOT updated — WriteManifestFS is the separate commit
// point. A failed write never leaves a temp file behind and never touches
// the previously installed image.
func WriteFS(fsys faultfs.FS, dir string, st *State) (name string, size int, err error) {
	f := faultfs.OrOS(fsys)
	if err := f.MkdirAll(dir, 0o755); err != nil {
		return "", 0, fmt.Errorf("snapshot: %w", err)
	}
	start := time.Now()
	name = FileName(st.AppliedLSN)
	data := Encode(st)
	if err := atomicWrite(f, dir, name, data); err != nil {
		return "", 0, err
	}
	writeSeconds.ObserveSince(start)
	writtenBytes.Add(uint64(len(data)))
	return name, len(data), nil
}

// WriteManifestFS atomically installs the manifest through fsys (nil means
// the real filesystem), committing a checkpoint. On failure the last-good manifest is untouched (the rename either happened
// or it did not; a torn manifest is impossible).
func WriteManifestFS(fsys faultfs.FS, dir string, m Manifest) error {
	if m.WrittenAt == "" {
		m.WrittenAt = time.Now().UTC().Format(time.RFC3339)
	}
	data, err := json.Marshal(m)
	if err != nil {
		return fmt.Errorf("snapshot: %w", err)
	}
	return atomicWrite(faultfs.OrOS(fsys), dir, manifestName, append(data, '\n'))
}

// LoadManifest reads the manifest; ok is false when dir holds no checkpoint
// yet (a fresh data dir).
func LoadManifest(dir string) (*Manifest, bool, error) {
	return LoadManifestFS(nil, dir)
}

// LoadManifestFS is LoadManifest through an injectable filesystem.
func LoadManifestFS(fsys faultfs.FS, dir string) (*Manifest, bool, error) {
	data, err := faultfs.OrOS(fsys).ReadFile(filepath.Join(dir, manifestName))
	if os.IsNotExist(err) {
		return nil, false, nil
	}
	if err != nil {
		return nil, false, fmt.Errorf("snapshot: %w", err)
	}
	m, err := ParseManifest(data)
	if err != nil {
		return nil, false, err
	}
	return m, true, nil
}

// ParseManifest parses MANIFEST.json bytes, validating the fields recovery
// depends on. It never panics on malformed input.
func ParseManifest(data []byte) (*Manifest, error) {
	var m Manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("snapshot: manifest: %w", err)
	}
	if m.Snapshot == "" {
		return nil, fmt.Errorf("snapshot: manifest: empty snapshot file name")
	}
	if m.Snapshot != filepath.Base(m.Snapshot) || strings.ContainsAny(m.Snapshot, "/\\") {
		return nil, fmt.Errorf("snapshot: manifest: snapshot name %q escapes data dir", m.Snapshot)
	}
	return &m, nil
}

// Load reads and verifies the image the manifest points at.
func Load(dir string, m *Manifest) (*State, error) {
	return LoadFS(nil, dir, m)
}

// LoadFS is Load through an injectable filesystem.
func LoadFS(fsys faultfs.FS, dir string, m *Manifest) (*State, error) {
	start := time.Now()
	data, err := faultfs.OrOS(fsys).ReadFile(filepath.Join(dir, m.Snapshot))
	if err != nil {
		return nil, fmt.Errorf("snapshot: %w", err)
	}
	st, err := Decode(data)
	if err != nil {
		return nil, err
	}
	if st.AppliedLSN != m.AppliedLSN {
		return nil, fmt.Errorf("snapshot: image lsn %d disagrees with manifest %d", st.AppliedLSN, m.AppliedLSN)
	}
	loadSeconds.ObserveSince(start)
	loadedBytes.Add(uint64(len(data)))
	return st, nil
}

// PruneFS removes snapshot images other than keep (the just-committed one),
// plus any temp files a crashed checkpoint left behind, through fsys (nil
// means the real filesystem).
func PruneFS(fsys faultfs.FS, dir, keep string) error {
	f := faultfs.OrOS(fsys)
	ents, err := f.ReadDir(dir)
	if err != nil {
		return fmt.Errorf("snapshot: %w", err)
	}
	for _, e := range ents {
		name := e.Name()
		if name == keep || e.IsDir() {
			continue
		}
		stale := strings.HasPrefix(name, "snap-") && strings.HasSuffix(name, ".snap") ||
			strings.HasPrefix(name, ".") && strings.Contains(name, ".tmp-")
		if stale {
			if err := f.Remove(filepath.Join(dir, name)); err != nil {
				return fmt.Errorf("snapshot: prune: %w", err)
			}
		}
	}
	return nil
}

// atomicWrite installs data at dir/name via temp file + fsync + rename +
// directory fsync. On any failure the temp file is removed and the
// previously installed dir/name (if any) is untouched.
func atomicWrite(fsys faultfs.FS, dir, name string, data []byte) error {
	tmp, err := fsys.CreateTemp(dir, "."+name+".tmp-*")
	if err != nil {
		return fmt.Errorf("snapshot: %w", err)
	}
	defer fsys.Remove(tmp.Name()) // no-op after successful rename
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		return fmt.Errorf("snapshot: %w", err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return fmt.Errorf("snapshot: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("snapshot: %w", err)
	}
	if err := fsys.Rename(tmp.Name(), filepath.Join(dir, name)); err != nil {
		return fmt.Errorf("snapshot: %w", err)
	}
	d, err := fsys.Open(dir)
	if err != nil {
		return fmt.Errorf("snapshot: %w", err)
	}
	defer d.Close()
	if err := d.Sync(); err != nil {
		return fmt.Errorf("snapshot: %w", err)
	}
	return nil
}
