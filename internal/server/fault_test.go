package server

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/faultfs"
	"repro/internal/query"
	"repro/internal/relation"
	"repro/internal/wal"
)

// postRaw posts a body and returns the raw response (headers included).
func postRaw(t *testing.T, ts *httptest.Server, path string, body string) *http.Response {
	t.Helper()
	resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { resp.Body.Close() })
	return resp
}

// TestHealthzDegradedStateMachine drives the full healthy → degraded →
// recovered cycle over HTTP: a failing disk turns mutations into 503s while
// queries and /healthz keep serving, and /admin/resume re-arms writes once
// the disk heals.
func TestHealthzDegradedStateMachine(t *testing.T) {
	dir := t.TempDir()
	in := faultfs.NewInjector(nil)
	eng := core.NewEngine()
	err := eng.Open(dir, core.PersistOptions{
		Fsync: wal.FsyncAlways, FS: in, RetryBackoff: 50 * time.Microsecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	if _, err := eng.Register("R", []relation.Pair{{X: 1, Y: 2}}); err != nil {
		t.Fatal(err)
	}
	ts := newTestServer(t, Config{Engine: eng})

	healthz := func() map[string]any {
		t.Helper()
		resp, err := http.Get(ts.URL + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("healthz status %d", resp.StatusCode)
		}
		var out map[string]any
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatal(err)
		}
		return out
	}

	if h := healthz(); h["status"] != "ok" || h["ok"] != true || h["degraded"] != false {
		t.Fatalf("healthy server reports %v", h)
	}

	// Persistent disk failure: the mutation must shed as 503 + Retry-After.
	in.Script(faultfs.Rule{Op: faultfs.OpWrite, PathContains: "wal-", Err: faultfs.ErrInjectedENOSPC, Times: 10})
	resp := postRaw(t, ts, "/catalog/relations/R/insert", `{"pairs":[[9,9]]}`)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("degraded insert: status %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("503 without Retry-After")
	}

	// "ok" is pure liveness and must stay true while degraded, or restart
	// probes would kill a node that is alive and serving reads.
	h := healthz()
	if h["status"] != "degraded" || h["ok"] != true || h["degraded"] != true {
		t.Fatalf("degraded server reports %v", h)
	}
	if h["cause"] == nil || h["since"] == nil {
		t.Fatalf("degraded healthz misses cause/since: %v", h)
	}

	// Reads keep serving while degraded.
	var qr queryResponse
	if code := post(t, ts, "/query", map[string]any{"query": "Q(x, y) :- R(x, y)"}, &qr); code != http.StatusOK {
		t.Fatalf("degraded query: status %d", code)
	}
	if qr.Rows != 1 {
		t.Fatalf("degraded query rows = %d (the rejected insert must not apply)", qr.Rows)
	}

	// Disk heals: /admin/resume re-arms and the state machine closes.
	in.Heal()
	var rr map[string]any
	if code := post(t, ts, "/admin/resume", map[string]any{}, &rr); code != http.StatusOK {
		t.Fatalf("resume: status %d (%v)", code, rr)
	}
	if rr["degraded"] != false {
		t.Fatalf("resume response: %v", rr)
	}
	if h := healthz(); h["status"] != "ok" || h["degraded"] != false {
		t.Fatalf("recovered server reports %v", h)
	}
	if code := post(t, ts, "/catalog/relations/R/insert", map[string]any{"pairs": [][2]int32{{7, 7}}}, nil); code != http.StatusOK {
		t.Fatalf("insert after resume: status %d", code)
	}
}

func TestResumeWithoutDataDir(t *testing.T) {
	ts := newTestServer(t, Config{})
	if code := post(t, ts, "/admin/resume", map[string]any{}, nil); code != http.StatusConflict {
		t.Fatalf("resume without persistence: status %d, want 409", code)
	}
}

// TestOverloadSheds429 fills the single evaluation slot and the zero-depth
// queue: the next request must be rejected immediately with 429 +
// Retry-After rather than waiting.
func TestOverloadSheds429(t *testing.T) {
	block := make(chan struct{})
	entered := make(chan struct{})
	testHookEvaluate = func(ctx context.Context, q string) (*query.Result, error) {
		close(entered)
		<-block
		return &query.Result{Plan: &query.Plan{}}, nil
	}
	t.Cleanup(func() { testHookEvaluate = nil })

	s := New(Config{Engine: core.NewEngine(), MaxInFlight: 1, QueueDepth: -1})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)

	done := make(chan int, 1)
	go func() {
		resp, err := http.Post(ts.URL+"/query", "application/json", strings.NewReader(`{"query":"Q(x, y) :- R(x, y)"}`))
		if err != nil {
			done <- 0
			return
		}
		resp.Body.Close()
		done <- resp.StatusCode
	}()
	<-entered // the slot is held inside the hook

	resp := postRaw(t, ts, "/query", `{"query":"Q(x, y) :- R(x, y)"}`)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overloaded: status %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}
	close(block)
	if code := <-done; code != http.StatusOK {
		t.Fatalf("blocked query finished with %d", code)
	}
}

// TestQueuedDeadlineSheds429 parks a request in the waiting room until its
// own deadline expires: that is shed load (429), not an evaluation timeout.
func TestQueuedDeadlineSheds429(t *testing.T) {
	block := make(chan struct{})
	entered := make(chan struct{})
	testHookEvaluate = func(ctx context.Context, q string) (*query.Result, error) {
		close(entered)
		<-block
		return &query.Result{Plan: &query.Plan{}}, nil
	}
	t.Cleanup(func() { testHookEvaluate = nil })
	defer close(block)

	s := New(Config{Engine: core.NewEngine(), MaxInFlight: 1, QueueDepth: 4})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)

	go func() {
		resp, err := http.Post(ts.URL+"/query", "application/json", strings.NewReader(`{"query":"Q(x, y) :- R(x, y)"}`))
		if err == nil {
			resp.Body.Close()
		}
	}()
	<-entered

	resp := postRaw(t, ts, "/query", `{"query":"Q(x, y) :- R(x, y)","timeout_ms":30}`)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("queued past deadline: status %d, want 429", resp.StatusCode)
	}
}

// TestBudgetExceeded422 wires a one-row budget into the engine: any real
// query trips it and the server maps that to 422.
func TestBudgetExceeded422(t *testing.T) {
	eng := core.NewEngine(core.WithQueryBudget(0, 1))
	if _, err := eng.Register("R", []relation.Pair{{X: 1, Y: 2}, {X: 2, Y: 3}, {X: 3, Y: 4}}); err != nil {
		t.Fatal(err)
	}
	ts := newTestServer(t, Config{Engine: eng})
	var out errorResponse
	if code := post(t, ts, "/query", map[string]any{"query": "Q(x, y) :- R(x, y)"}, &out); code != http.StatusUnprocessableEntity {
		t.Fatalf("budget trip: status %d, want 422 (%v)", code, out)
	}
	if !strings.Contains(out.Error, "budget") {
		t.Fatalf("422 body should name the budget: %q", out.Error)
	}
}

// TestViewReadPanicIsolated500 injects a panic on the view-read path (which
// recomputes a stale refresh-mode view, so it runs engine code): the request
// gets a 500 with its request ID instead of a dropped connection, the
// admission slot is returned, and the next read is served.
func TestViewReadPanicIsolated500(t *testing.T) {
	eng := core.NewEngine()
	if _, err := eng.Register("R", []relation.Pair{{X: 1, Y: 2}, {X: 2, Y: 3}}); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.RegisterView(context.Background(), "v", "V(x, z) :- R(x, y), R(y, z)"); err != nil {
		t.Fatal(err)
	}
	ts := newTestServer(t, Config{Engine: eng, MaxInFlight: 1, QueueDepth: -1})

	testHookViewRead = func() { panic("kaboom: poisoned view store") }
	t.Cleanup(func() { testHookViewRead = nil })
	var out errorResponse
	if code := get(t, ts, "/views/v", &out); code != http.StatusInternalServerError {
		t.Fatalf("panicking view read: status %d, want 500", code)
	}
	if !strings.Contains(out.Error, "kaboom") || out.RequestID == "" {
		t.Fatalf("500 body should carry the panic value and the request ID: %+v", out)
	}

	testHookViewRead = nil
	var vr viewResultResponse
	if code := get(t, ts, "/views/v", &vr); code != http.StatusOK || vr.Rows != 1 {
		t.Fatalf("server wedged after panic: status %d rows %d", code, vr.Rows)
	}
}

// TestCreateViewPanicIsolated500 injects a panic into view registration
// (which compiles and evaluates the definition, so it runs engine code): the
// request gets a 500 with its request ID instead of a dropped connection,
// and the admission slot is returned — after MaxInFlight such panics the
// server still admits MaxInFlight more requests instead of answering 429
// forever.
func TestCreateViewPanicIsolated500(t *testing.T) {
	eng := core.NewEngine()
	if _, err := eng.Register("R", []relation.Pair{{X: 1, Y: 2}, {X: 2, Y: 3}}); err != nil {
		t.Fatal(err)
	}
	const maxInFlight = 2
	ts := newTestServer(t, Config{Engine: eng, MaxInFlight: maxInFlight, QueueDepth: -1})
	def := func(name string) map[string]any {
		return map[string]any{"name": name, "query": "V(x, z) :- R(x, y), R(y, z)"}
	}

	testHookCreateView = func() { panic("kaboom: poisoned view definition") }
	t.Cleanup(func() { testHookCreateView = nil })
	for i := 0; i < maxInFlight; i++ {
		var out errorResponse
		if code := post(t, ts, "/views", def("bad"), &out); code != http.StatusInternalServerError {
			t.Fatalf("panicking create-view %d: status %d, want 500", i, code)
		}
		if !strings.Contains(out.Error, "kaboom") || out.RequestID == "" {
			t.Fatalf("500 body should carry the panic value and the request ID: %+v", out)
		}
	}

	testHookCreateView = nil
	for i := 0; i < maxInFlight; i++ {
		var info viewInfoResponse
		if code := post(t, ts, "/views", def(fmt.Sprintf("v%d", i)), &info); code != http.StatusOK || info.Rows != 1 {
			t.Fatalf("request %d after the panics: status %d rows %d (admission slot leaked?)", i, code, info.Rows)
		}
	}
}

// TestQueryPanicIsolated500 injects a panicking evaluation: the request
// gets a 500 naming the panic, and the server keeps serving afterwards.
func TestQueryPanicIsolated500(t *testing.T) {
	testHookEvaluate = func(ctx context.Context, q string) (*query.Result, error) {
		panic("kaboom: poisoned operator")
	}
	s := New(Config{Engine: core.NewEngine()})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)

	var out errorResponse
	if code := post(t, ts, "/query", map[string]any{"query": "Q(x, y) :- R(x, y)"}, &out); code != http.StatusInternalServerError {
		t.Fatalf("panicking query: status %d, want 500", code)
	}
	if !strings.Contains(out.Error, "kaboom") {
		t.Fatalf("500 body should carry the panic value: %q", out.Error)
	}

	// The panic must not leak the admission slot or wedge the server.
	testHookEvaluate = nil
	t.Cleanup(func() { testHookEvaluate = nil })
	if _, err := s.Engine().Register("R", []relation.Pair{{X: 1, Y: 2}}); err != nil {
		t.Fatal(err)
	}
	var qr queryResponse
	if code := post(t, ts, "/query", map[string]any{"query": "Q(x, y) :- R(x, y)"}, &qr); code != http.StatusOK || qr.Rows != 1 {
		t.Fatalf("server wedged after panic: status %d rows %d", code, qr.Rows)
	}
}
