package repl

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"

	"repro/internal/relation"
	"repro/internal/snapshot"
	"repro/internal/wal"
)

// newPrimaryDir opens a WAL in a temp dir, appends n mutate records, and
// returns the dir, the live WAL and the appended records.
func newPrimaryDir(t *testing.T, n int) (string, *wal.WAL, []*wal.Record) {
	t.Helper()
	dir := t.TempDir()
	w, err := wal.Open(dir, wal.Options{Policy: wal.FsyncNever})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { w.Close() })
	var recs []*wal.Record
	for i := 0; i < n; i++ {
		r := &wal.Record{Kind: wal.KindMutate, Name: "R", Added: []relation.Pair{{X: int32(i), Y: int32(i + 1)}}}
		if _, err := w.Append(r); err != nil {
			t.Fatal(err)
		}
		recs = append(recs, r)
	}
	return dir, w, recs
}

// newTestServer mounts a Source on an httptest server and returns a client.
func newTestServer(t *testing.T, src *Source) *Client {
	t.Helper()
	mux := http.NewServeMux()
	mux.HandleFunc("GET /repl/segments", src.ServeSegments)
	mux.HandleFunc("GET /repl/snapshot", src.ServeSnapshot)
	mux.HandleFunc("GET /repl/status", src.ServeStatus)
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)
	return &Client{Base: ts.URL, HTTP: ts.Client()}
}

func TestSourceServesFullTail(t *testing.T) {
	dir, w, recs := newPrimaryDir(t, 25)
	c := newTestServer(t, &Source{Dir: dir, Next: w.NextLSN})
	b, err := c.Fetch(context.Background(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if b.PrimaryNext != 26 {
		t.Fatalf("PrimaryNext = %d, want 26", b.PrimaryNext)
	}
	if len(b.Records) != 25 {
		t.Fatalf("got %d records, want 25", len(b.Records))
	}
	for i, sr := range b.Records {
		if sr.LSN != uint64(i+1) || !reflect.DeepEqual(sr.Record, recs[i]) {
			t.Fatalf("record %d diverged", i)
		}
	}
}

func TestSourceCaughtUpAndAhead(t *testing.T) {
	dir, w, _ := newPrimaryDir(t, 3)
	c := newTestServer(t, &Source{Dir: dir, Next: w.NextLSN})
	// from == next: caught up, empty batch.
	b, err := c.Fetch(context.Background(), 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(b.Records) != 0 || b.PrimaryNext != 4 {
		t.Fatalf("caught-up batch: %d records, next %d", len(b.Records), b.PrimaryNext)
	}
	// from > next: the follower is ahead (primary lost its tail).
	if _, err := c.Fetch(context.Background(), 5); !errors.Is(err, ErrAhead) {
		t.Fatalf("ahead fetch: %v, want ErrAhead", err)
	}
}

func TestSourceGoneAfterTruncation(t *testing.T) {
	dir, w, _ := newPrimaryDir(t, 10)
	// Rotate so TruncateBefore has a removable segment, then drop history
	// below LSN 6.
	if err := w.Rotate(); err != nil {
		t.Fatal(err)
	}
	if _, err := w.Append(&wal.Record{Kind: wal.KindDrop, Name: "R"}); err != nil {
		t.Fatal(err)
	}
	if err := w.TruncateBefore(11); err != nil {
		t.Fatal(err)
	}
	c := newTestServer(t, &Source{Dir: dir, Next: w.NextLSN})
	if _, err := c.Fetch(context.Background(), 1); !errors.Is(err, ErrTruncatedHistory) {
		t.Fatalf("pre-truncation fetch: %v, want ErrTruncatedHistory", err)
	}
	// Retained history still serves.
	b, err := c.Fetch(context.Background(), 11)
	if err != nil {
		t.Fatal(err)
	}
	if len(b.Records) != 1 {
		t.Fatalf("got %d records, want 1", len(b.Records))
	}
}

func TestSourceRespectsCapsAndClientLoops(t *testing.T) {
	dir, w, recs := newPrimaryDir(t, 10)
	c := newTestServer(t, &Source{Dir: dir, Next: w.NextLSN, MaxRecords: 3})
	var got []ShippedRecord
	from := uint64(1)
	rounds := 0
	for {
		b, err := c.Fetch(context.Background(), from)
		if err != nil {
			t.Fatal(err)
		}
		rounds++
		got = append(got, b.Records...)
		if len(b.Records) == 0 {
			break
		}
		from = b.Records[len(b.Records)-1].LSN + 1
	}
	if len(got) != len(recs) {
		t.Fatalf("looped fetch got %d records, want %d", len(got), len(recs))
	}
	if rounds < 4 { // 10 records at ≤3 per response, plus the empty tail poll
		t.Fatalf("cap not applied: %d rounds", rounds)
	}
}

func TestSourceRejectsBadFrom(t *testing.T) {
	dir, w, _ := newPrimaryDir(t, 1)
	c := newTestServer(t, &Source{Dir: dir, Next: w.NextLSN})
	for _, q := range []string{"", "0", "x", "-1"} {
		_, _, err := c.get(context.Background(), "/repl/segments?from="+q)
		if err == nil {
			t.Errorf("from=%q accepted", q)
		}
	}
}

func TestSourceSnapshotEmptyWithoutCheckpoint(t *testing.T) {
	dir, w, _ := newPrimaryDir(t, 5)
	c := newTestServer(t, &Source{Dir: dir, Next: w.NextLSN})
	bs, err := c.Snapshot(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if bs.State.AppliedLSN != 0 || len(bs.State.Relations) != 0 || len(bs.State.Views) != 0 {
		t.Fatalf("empty-dir snapshot not empty: %+v", bs.State)
	}
	if bs.PrimaryNext != 6 {
		t.Fatalf("PrimaryNext = %d, want 6", bs.PrimaryNext)
	}
}

func TestSourceSnapshotServesCheckpoint(t *testing.T) {
	dir, w, _ := newPrimaryDir(t, 5)
	st := &snapshot.State{
		AppliedLSN: 5,
		Relations:  []snapshot.Relation{{Name: "R", Pairs: []relation.Pair{{X: 1, Y: 2}}}},
	}
	name, _, err := snapshot.WriteFS(nil, dir, st)
	if err != nil {
		t.Fatal(err)
	}
	if err := snapshot.WriteManifestFS(nil, dir, snapshot.Manifest{Snapshot: name, AppliedLSN: 5}); err != nil {
		t.Fatal(err)
	}
	c := newTestServer(t, &Source{Dir: dir, Next: w.NextLSN})
	bs, err := c.Snapshot(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if bs.State.AppliedLSN != 5 || len(bs.State.Relations) != 1 || bs.State.Relations[0].Name != "R" {
		t.Fatalf("snapshot diverged: %+v", bs.State)
	}
	// Status reflects both the WAL span and the checkpoint.
	sst, err := c.Status(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if sst.NextLSN != 6 || sst.OldestLSN != 1 || sst.SnapshotLSN != 5 {
		t.Fatalf("status = %+v", sst)
	}
}

func TestClientDetectsGap(t *testing.T) {
	// A server that ships a stream starting past the requested LSN.
	recs := sampleRecords()[:1]
	mux := http.NewServeMux()
	mux.HandleFunc("GET /repl/segments", func(w http.ResponseWriter, r *http.Request) {
		buf := AppendMagic(nil)
		buf, _ = AppendFrame(buf, 7, recs[0])
		w.Header().Set(HeaderNextLSN, "8")
		w.Write(buf)
	})
	ts := httptest.NewServer(mux)
	defer ts.Close()
	c := &Client{Base: ts.URL, HTTP: ts.Client()}
	if _, err := c.Fetch(context.Background(), 5); err == nil {
		t.Fatal("gapped stream accepted")
	}
}

func TestValidateBase(t *testing.T) {
	for _, ok := range []string{"http://localhost:8080", "https://p.example.com"} {
		if err := ValidateBase(ok); err != nil {
			t.Errorf("ValidateBase(%q): %v", ok, err)
		}
	}
	for _, bad := range []string{"", "localhost:8080", "ftp://x", "http://"} {
		if err := ValidateBase(bad); err == nil {
			t.Errorf("ValidateBase(%q): no error", bad)
		}
	}
}

// Status fetches the primary's /repl/status document.
func (c *Client) Status(ctx context.Context) (*SourceStatus, error) {
	body, _, err := c.get(ctx, "/repl/status")
	if err != nil {
		return nil, err
	}
	var st SourceStatus
	if err := json.Unmarshal(body, &st); err != nil {
		return nil, fmt.Errorf("repl: status: %w", err)
	}
	return &st, nil
}
