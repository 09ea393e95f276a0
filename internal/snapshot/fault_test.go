package snapshot

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/faultfs"
	"repro/internal/relation"
)

// tmpLeftovers counts temp files a failed atomic write may have leaked.
func tmpLeftovers(t *testing.T, dir string) int {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, e := range ents {
		if strings.Contains(e.Name(), ".tmp-") {
			n++
		}
	}
	return n
}

func testState(lsn uint64) *State {
	return &State{
		AppliedLSN: lsn,
		Relations:  []Relation{{Name: "R", Pairs: []relation.Pair{{X: 1, Y: 2}}}},
	}
}

func TestWriteFaultLeavesNoTempFiles(t *testing.T) {
	dir := t.TempDir()
	for _, r := range []faultfs.Rule{
		{Op: faultfs.OpWrite, PathContains: ".tmp-", Err: faultfs.ErrInjectedENOSPC},
		{Op: faultfs.OpSync, PathContains: ".tmp-", Err: faultfs.ErrInjectedEIO},
		{Op: faultfs.OpRename, Err: faultfs.ErrInjectedEIO},
	} {
		in := faultfs.NewInjector(nil)
		in.Script(r)
		if _, _, err := WriteFS(in, dir, testState(7)); err == nil {
			t.Fatalf("rule %v: write should fail", r.Op)
		}
		if n := tmpLeftovers(t, dir); n != 0 {
			t.Fatalf("rule %v: %d temp files leaked", r.Op, n)
		}
		if _, err := os.Stat(filepath.Join(dir, FileName(7))); !os.IsNotExist(err) {
			t.Fatalf("rule %v: failed write must not install the image", r.Op)
		}
	}
}

func TestManifestFaultKeepsLastGood(t *testing.T) {
	dir := t.TempDir()
	if err := WriteManifestFS(nil, dir, Manifest{Snapshot: FileName(5), AppliedLSN: 5}); err != nil {
		t.Fatal(err)
	}
	in := faultfs.NewInjector(nil)
	in.Script(faultfs.Rule{Op: faultfs.OpRename, Err: faultfs.ErrInjectedEIO})
	err := WriteManifestFS(in, dir, Manifest{Snapshot: FileName(9), AppliedLSN: 9})
	if !errors.Is(err, faultfs.ErrInjectedEIO) {
		t.Fatalf("want EIO, got %v", err)
	}
	m, ok, lerr := LoadManifest(dir)
	if lerr != nil || !ok {
		t.Fatalf("load after failed commit: %v ok=%v", lerr, ok)
	}
	if m.AppliedLSN != 5 {
		t.Fatalf("failed manifest commit clobbered last-good: lsn=%d", m.AppliedLSN)
	}
	if n := tmpLeftovers(t, dir); n != 0 {
		t.Fatalf("%d temp files leaked", n)
	}
}

func TestPruneRemovesStaleTempFiles(t *testing.T) {
	dir := t.TempDir()
	// A crash mid-atomic-write leaves a .tmp- file; PruneFS sweeps it.
	stale := filepath.Join(dir, "."+FileName(3)+".tmp-123")
	if err := os.WriteFile(stale, []byte("partial"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := WriteFS(nil, dir, testState(9)); err != nil {
		t.Fatal(err)
	}
	if err := PruneFS(nil, dir, FileName(9)); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(stale); !os.IsNotExist(err) {
		t.Fatal("prune left the stale temp file")
	}
	if _, err := os.Stat(filepath.Join(dir, FileName(9))); err != nil {
		t.Fatalf("prune removed the kept image: %v", err)
	}
}

func TestParseManifestRejectsEscapes(t *testing.T) {
	for _, bad := range []string{
		`{"snapshot":"","applied_lsn":1}`,
		`{"snapshot":"../etc/passwd","applied_lsn":1}`,
		`{"snapshot":"a/b.snap","applied_lsn":1}`,
		`not json`,
	} {
		if _, err := ParseManifest([]byte(bad)); err == nil {
			t.Fatalf("ParseManifest(%q) passed", bad)
		}
	}
	m, err := ParseManifest([]byte(`{"snapshot":"snap-0000000000000001.snap","applied_lsn":1}`))
	if err != nil || m.AppliedLSN != 1 {
		t.Fatalf("valid manifest rejected: %v", err)
	}
}
