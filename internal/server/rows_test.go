package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/query"
	"repro/internal/relation"
	"repro/internal/view"
)

// TestRowBodiesHaveNoUnwrittenFields: the row writer encodes each response
// field by hand, so a field added to one of these structs must be added to
// its encode method (and to the generators below) in the same change.
func TestRowBodiesHaveNoUnwrittenFields(t *testing.T) {
	for _, c := range []struct {
		v    any
		want int
	}{{queryResponse{}, 8}, {viewResultResponse{}, 7}, {view.Freshness{}, 7}} {
		if n := reflect.TypeOf(c.v).NumField(); n != c.want {
			t.Errorf("%T has %d fields, the row writer encodes %d", c.v, n, c.want)
		}
	}
}

// awkwardPieces are the string fragments encoding/json treats specially:
// HTML-escaped bytes, short and \u00XX control escapes, the JavaScript line
// separators, multi-byte runes and invalid UTF-8.
var awkwardPieces = []string{
	"a", "Q(x, y) :- R(x, y)", " ", "<", ">", "&", `"`, `\`, "\n", "\r", "\t",
	"\b", "\f", "\x00", "\x1f", "\x7f", "\u2028", "\u2029", "é", "日本", "😀",
	"\xff", "\xe2\x80", "→ [x, y]",
}

func randString(rng *rand.Rand) string {
	var b strings.Builder
	for n := rng.Intn(8); n > 0; n-- {
		b.WriteString(awkwardPieces[rng.Intn(len(awkwardPieces))])
	}
	return b.String()
}

func randStrings(rng *rand.Rand, n int) []string {
	if rng.Intn(8) == 0 {
		return nil
	}
	ss := make([]string, n)
	for i := range ss {
		ss[i] = randString(rng)
	}
	return ss
}

// randTuples returns 0–50 rows of 0–4 columns: small, negative, 40-bit and
// extreme values; nil or empty when there are no rows; now and then a nil
// row.
func randTuples(rng *rand.Rand) [][]int64 {
	rows, cols := rng.Intn(51), rng.Intn(5)
	if rows == 0 && rng.Intn(2) == 0 {
		return nil
	}
	ts := make([][]int64, rows)
	for i := range ts {
		if rng.Intn(40) == 0 {
			continue
		}
		ts[i] = make([]int64, cols)
		for j := range ts[i] {
			switch rng.Intn(5) {
			case 0:
				ts[i][j] = int64(rng.Intn(100)) - 50
			case 1:
				ts[i][j] = rng.Int63n(1<<40) - 1<<39
			case 2:
				ts[i][j] = [...]int64{math.MinInt64, math.MaxInt64, 0, 1 << 40, -(1 << 40)}[rng.Intn(5)]
			default:
				ts[i][j] = int64(rng.Int31())
			}
		}
	}
	return ts
}

func randElapsed(rng *rand.Rand) float64 {
	if rng.Intn(2) == 0 {
		return [...]float64{0, 1e-7, 12.345, 1e22, 1e21, 999999.999, 5e-324}[rng.Intn(7)]
	}
	return float64(rng.Int63n(10_000_000)) / 1000
}

func randCursor(rng *rand.Rand) string {
	if rng.Intn(2) == 0 {
		return ""
	}
	return randString(rng) + "v1:MTA="
}

func randFreshness(rng *rand.Rand) view.Freshness {
	f := view.Freshness{
		Mode:           [...]string{view.ModeIncremental, view.ModeRefresh, randString(rng)}[rng.Intn(3)],
		Stale:          rng.Intn(2) == 0,
		PendingBatches: rng.Intn(100),
		Updates:        rng.Uint64(),
		LastMaintainNs: rng.Int63() - rng.Int63(),
	}
	if rng.Intn(2) == 0 {
		f.Reason = randString(rng)
	}
	switch rng.Intn(3) {
	case 0:
		f.Strategies = []string{}
	case 1:
		f.Strategies = randStrings(rng, 1+rng.Intn(3))
	}
	return f
}

// requireSameResponse encodes body once through encoding/json (the
// reference) and once through the row writer and requires the same status,
// Content-Type and bytes.
func requireSameResponse(t *testing.T, body rowBody) {
	t.Helper()
	want, got := httptest.NewRecorder(), httptest.NewRecorder()
	writeJSON(want, http.StatusOK, body)
	writeRows(got, body)
	if got.Code != want.Code || got.Header().Get("Content-Type") != want.Header().Get("Content-Type") {
		t.Fatalf("status/type %d %q, want %d %q", got.Code, got.Header().Get("Content-Type"),
			want.Code, want.Header().Get("Content-Type"))
	}
	requireSameBytes(t, got.Body.Bytes(), want.Body.Bytes())
}

func requireSameBytes(t *testing.T, got, want []byte) {
	t.Helper()
	if bytes.Equal(got, want) {
		return
	}
	i := 0
	for i < len(got) && i < len(want) && got[i] == want[i] {
		i++
	}
	lo := max(i-40, 0)
	t.Fatalf("bodies differ at byte %d of %d/%d:\n got …%q\nwant …%q",
		i, len(got), len(want), got[lo:min(i+40, len(got))], want[lo:min(i+40, len(want))])
}

// TestRowWriterMatchesEncodingJSON is the byte-identity differential: every
// row-bearing response shape — an unpaged /query, a /query page, a
// /views/{name} page — encoded by the row writer equals encoding/json's
// bytes for the same value.
func TestRowWriterMatchesEncodingJSON(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for i := 0; i < 500; i++ {
		cols := rng.Intn(5)
		tuples := randTuples(rng)
		// Unpaged /query: no cursor, no result cache.
		requireSameResponse(t, &queryResponse{
			Columns: randStrings(rng, cols), Tuples: tuples, Rows: len(tuples),
			Plan: randString(rng), PlanCache: rng.Intn(2) == 0, ElapsedMs: randElapsed(rng),
		})
		// A /query page.
		requireSameResponse(t, &queryResponse{
			Columns: randStrings(rng, cols), Tuples: tuples, Rows: rng.Intn(1000),
			Plan: randString(rng), PlanCache: rng.Intn(2) == 0, ResultCache: rng.Intn(2) == 0,
			ElapsedMs: randElapsed(rng), NextCursor: randCursor(rng),
		})
		// A /views/{name} page.
		requireSameResponse(t, &viewResultResponse{
			Name: randString(rng), Query: randString(rng), Columns: randStrings(rng, cols),
			Tuples: tuples, Rows: rng.Intn(1000), Freshness: randFreshness(rng),
			NextCursor: randCursor(rng),
		})
	}
	// Bodies and strings longer than the buffer cross flushes mid-string
	// and between rows; one row is wider than the whole buffer.
	long := strings.Repeat("<a&b>\u2028x\"", rowBufSize/3)
	wide := make([][]int64, 20_000)
	for i := range wide {
		wide[i] = []int64{int64(i) << 24, -int64(i), math.MinInt64}
	}
	wide[7] = slices.Repeat([]int64{math.MinInt64}, 2*rowBufSize/20)
	requireSameResponse(t, &queryResponse{Columns: []string{long}, Tuples: wide, Rows: len(wide), Plan: long, ElapsedMs: 1e22})
	requireSameResponse(t, &viewResultResponse{Name: long, Tuples: wide, Freshness: view.Freshness{Reason: long, Strategies: []string{long}}})
}

// requireCanonical decodes a served body and requires that encoding/json
// re-encodes the decoded value to exactly the served bytes.
func requireCanonical[T any](t *testing.T, resp *http.Response) T {
	t.Helper()
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK || resp.Header.Get("Content-Type") != "application/json" {
		t.Fatalf("status %d type %q: %s", resp.StatusCode, resp.Header.Get("Content-Type"), body)
	}
	var v T
	if err := json.Unmarshal(body, &v); err != nil {
		t.Fatalf("decode %s: %v", body, err)
	}
	var want bytes.Buffer
	if err := json.NewEncoder(&want).Encode(v); err != nil {
		t.Fatal(err)
	}
	requireSameBytes(t, body, want.Bytes())
	return v
}

func postQuery(t *testing.T, ts *httptest.Server, req queryRequest) *http.Response {
	t.Helper()
	b, _ := json.Marshal(req)
	resp, err := http.Post(ts.URL+"/query", "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// TestRowRoutesServeEncodingJSONBytes drives the three row-bearing routes
// through the real handler and requires every body to be exactly what
// encoding/json writes for the value it decodes to, carrying the answer the
// engine (or the injected evaluation) produced.
func TestRowRoutesServeEncodingJSONBytes(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	s := New(Config{Engine: core.NewEngine()})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)

	// Unpaged POST /query over injected results: awkward strings, 40-bit
	// values, nil and empty tuple slices. Invalid UTF-8 is left out here: it
	// is served as \ufffd, which decodes to a different string.
	valid := func() string { return strings.ToValidUTF8(randString(rng), "") }
	t.Cleanup(func() { testHookEvaluate = nil })
	for i := 0; i < 60; i++ {
		cols := make([]string, rng.Intn(5))
		for j := range cols {
			cols[j] = valid()
		}
		res := &query.Result{
			Columns: cols,
			Tuples:  randTuples(rng),
			Plan:    &query.Plan{Text: valid(), Root: &query.Node{Op: "project", Detail: valid(), Rows: -1}},
		}
		testHookEvaluate = func(context.Context, string) (*query.Result, error) { return res, nil }
		got := requireCanonical[queryResponse](t, postQuery(t, ts, queryRequest{Query: "Q(x) :- R(x, y)"}))
		want := res.Tuples
		if want == nil {
			want = [][]int64{}
		}
		if !reflect.DeepEqual(got.Columns, res.Columns) || !reflect.DeepEqual(got.Tuples, want) ||
			got.Rows != len(want) || got.Plan != res.Plan.String() {
			t.Fatalf("served %+v for %+v", got, res)
		}
	}
	testHookEvaluate = nil

	// Paged POST /query and GET /views/{name} over a real engine.
	pairs := func(n int) []relation.Pair {
		ps := make([]relation.Pair, n)
		for i := range ps {
			ps[i] = relation.Pair{X: int32(rng.Intn(40) - 20), Y: int32(rng.Intn(30))}
		}
		return ps
	}
	eng := s.Engine()
	for _, name := range []string{"R", "S"} {
		if _, err := eng.Register(name, pairs(300)); err != nil {
			t.Fatal(err)
		}
	}
	const src = "Q(x, z) :- R(x, y), S(z, y)"
	if _, err := eng.RegisterView(context.Background(), "v", src); err != nil {
		t.Fatal(err)
	}
	// Maintenance gives the view non-zero freshness counters.
	if _, err := eng.Mutate("R", pairs(20), nil); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Mutate("R", nil, pairs(20)); err != nil {
		t.Fatal(err)
	}
	want, err := eng.QuerySorted(context.Background(), src)
	if err != nil {
		t.Fatal(err)
	}
	for _, limit := range []int{1 + rng.Intn(50), 97, len(want.Tuples) + 1} {
		var served [][]int64
		for cursor := ""; ; {
			page := requireCanonical[queryResponse](t, postQuery(t, ts, queryRequest{Query: src, Limit: limit, Cursor: cursor}))
			served = append(served, page.Tuples...)
			if cursor = page.NextCursor; cursor == "" {
				break
			}
		}
		if !reflect.DeepEqual(served, want.Tuples) {
			t.Fatalf("limit %d: pages hold %d rows, want the %d sorted rows", limit, len(served), len(want.Tuples))
		}

		served = nil
		for cursor := ""; ; {
			resp, err := http.Get(fmt.Sprintf("%s/views/v?limit=%d&cursor=%s", ts.URL, limit, cursor))
			if err != nil {
				t.Fatal(err)
			}
			page := requireCanonical[viewResultResponse](t, resp)
			if page.Freshness.Updates == 0 || page.Freshness.LastMaintainNs == 0 {
				t.Fatalf("view page carries zero freshness %+v", page.Freshness)
			}
			served = append(served, page.Tuples...)
			if cursor = page.NextCursor; cursor == "" {
				break
			}
		}
		if !reflect.DeepEqual(served, want.Tuples) {
			t.Fatalf("limit %d: view pages hold %d rows, want %d", limit, len(served), len(want.Tuples))
		}
	}
}

// countingDiscard is a ResponseWriter that keeps nothing but the size of
// what it is sent.
type countingDiscard struct {
	h                      http.Header
	bytes, writes, largest int
}

func (d *countingDiscard) Header() http.Header { return d.h }
func (d *countingDiscard) WriteHeader(int)     {}
func (d *countingDiscard) Write(p []byte) (int, error) {
	d.bytes += len(p)
	d.writes++
	d.largest = max(d.largest, len(p))
	return len(p), nil
}

// TestRowWriterStreamsInBoundedMemory pins the streaming: serving a 3-column
// answer allocates the same small constant at 100 000 and at 1 000 000 rows,
// and no piece handed to the ResponseWriter exceeds the fixed buffer. A
// writer that built the whole body first would allocate tens of megabytes.
func TestRowWriterStreamsInBoundedMemory(t *testing.T) {
	for _, n := range []int{100_000, 1_000_000} {
		flat := make([]int64, 3*n)
		rows := make([][]int64, n)
		for i := range rows {
			rows[i] = flat[3*i : 3*i+3]
			rows[i][0], rows[i][1], rows[i][2] = int64(i), -int64(i), 1<<40+int64(i)
		}
		body := &queryResponse{Columns: []string{"a", "b", "c"}, Tuples: rows, Rows: n, Plan: "project"}
		w := &countingDiscard{h: http.Header{}}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		writeRows(w, body)
		runtime.ReadMemStats(&after)
		spent := after.TotalAlloc - before.TotalAlloc
		if spent > 64<<10 {
			t.Errorf("%d rows: the writer allocated %d bytes; want ≤ 64 KiB whatever the row count", n, spent)
		}
		if w.largest > rowBufSize || w.bytes < 20*n {
			t.Errorf("%d rows: %d bytes in %d writes, largest %d; want pieces ≤ %d", n, w.bytes, w.writes, w.largest, rowBufSize)
		}
		t.Logf("%d rows: %d body bytes in %d writes, %d bytes allocated", n, w.bytes, w.writes, spent)
	}
}

// Engine returns the wrapped engine (for preloading relations in tests).
func (s *Server) Engine() *core.Engine { return s.eng }
