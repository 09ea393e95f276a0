// Package server exposes the query engine over HTTP/JSON: query evaluation,
// EXPLAIN, catalog management, tuple-level mutations and live materialized
// views, with per-query timeouts and bounded admission so a burst of heavy
// queries degrades to queueing instead of memory blow-up. cmd/joinmmd is the
// thin main wrapping this package.
//
// Endpoints (all JSON):
//
//	POST   /query              {"query": "...", "timeout_ms": 0,
//	                            "limit": 0, "cursor": ""}         → result page
//	POST   /explain            {"query": "...", "analyze": false} → plan
//	GET    /catalog                                               → listing
//	POST   /catalog/relations  {"name": "R", "pairs": [[x,y],...]}
//	                           or {"name": "R", "path": "file"}   → stats
//	DELETE /catalog/relations/{name}
//	POST   /catalog/relations/{name}/insert  {"pairs": [[x,y],...]} → delta
//	POST   /catalog/relations/{name}/delete  {"pairs": [[x,y],...]} → delta
//	POST   /views              {"name": "v", "query": "..."}      → view info
//	GET    /views                                                 → listing
//	GET    /views/{name}?limit=N&cursor=C    → result page + freshness
//	GET    /views/{name}/explain             → maintenance plan
//	DELETE /views/{name}
//	POST   /admin/checkpoint                 → durability checkpoint
//	POST   /admin/resume                     → re-arm a degraded engine
//	GET    /healthz                          → ok|degraded + WAL/recovery stats
//	GET    /stats/statements?sort=K&limit=N  → per-fingerprint statement stats
//	GET    /stats/planner?sort=K&limit=N     → planner accuracy + decision audit
//	POST   /stats/reset                      → clear the statement sheet (both views)
//	GET    /stats/activity                   → in-flight queries (live view)
//	POST   /stats/activity/{id}/cancel       → kill a running query
//	GET    /debug/flight?limit=N             → recently completed query traces
//
// Failures map to distinct statuses so callers can react mechanically:
// 429 (+Retry-After) when the bounded admission queue is full or a request
// times out while queued, 422 when a query trips its memory budget, 503
// (+Retry-After) while the engine is degraded to read-only after a disk
// failure, 504/408 on evaluation timeout/disconnect, and 500 with the
// panic logged when a query panics (the panic is confined to its request).
//
// Query and view results are paginated when limit is set: tuples are served
// in canonical sorted order and the response carries an opaque next_cursor
// until the result is exhausted, so large outputs never materialize one
// giant JSON body. Paginated queries go through the engine's sorted-result
// cache (keyed on query text + referenced relation versions), so a page
// sequence over an unchanged catalog re-slices one sorted result instead of
// re-evaluating and re-sorting per page.
//
// Every row-bearing body (POST /query, paged or not, and GET /views/{name})
// is written by one row writer (rows.go) instead of encoding/json: header
// fields in struct order, tuple values through strconv.AppendInt, streamed
// through one pooled fixed-size buffer that is flushed to the
// ResponseWriter whenever it fills, so a large answer costs no reflection
// and bounded server memory. Its bytes are identical to encoding/json's.
// Every other response is small and goes through writeJSON.
package server

import (
	"context"
	"encoding/base64"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/govern"
	"repro/internal/par"
	"repro/internal/query"
	"repro/internal/relation"
	"repro/internal/view"
)

// ErrOverloaded rejects a request the bounded admission queue cannot hold:
// every evaluation slot is busy and the waiting room is full (or the
// request's deadline expired while it waited). Mapped to 429 + Retry-After.
var ErrOverloaded = errors.New("server: overloaded")

// ErrInternal is the caller-visible face of a panicking query: the panic
// and stack are logged server-side, the request gets a 500, and the rest of
// the server keeps serving.
var ErrInternal = errors.New("server: internal error")

// Config configures a Server.
type Config struct {
	// Engine evaluates the queries; nil builds a default engine.
	Engine *core.Engine
	// Timeout bounds each query's evaluation (default 30s). A request may
	// lower (never raise) it via timeout_ms.
	Timeout time.Duration
	// MaxInFlight bounds concurrently evaluating queries; further requests
	// wait (up to their timeout) for an admission slot. Default: the
	// engine's worker count (all cores).
	MaxInFlight int
	// QueueDepth bounds how many requests may wait for an admission slot
	// once every slot is busy; requests beyond that are rejected
	// immediately with 429 rather than piling up goroutines and request
	// state without bound. Default 64; negative disables waiting entirely.
	QueueDepth int
	// Logger receives the server's structured log (panics, slow queries);
	// nil uses slog.Default(). Every record carries the request_id also
	// returned in the X-Request-Id header and in error bodies.
	Logger *slog.Logger
	// SlowQueryThreshold logs any query evaluation at or above this duration
	// at Warn level with its text, plan summary and request ID; 0 disables
	// the slow-query log.
	SlowQueryThreshold time.Duration
	// EnablePprof mounts net/http/pprof under /debug/pprof/ — opt-in because
	// profiles expose internals and cost CPU while sampling.
	EnablePprof bool
	// Build identifies the binary on /healthz, /metrics and -version.
	Build BuildInfo
	// Replica, when set, marks this server a read-only follower: mutating
	// routes answer 503 pointing at the primary, and /healthz reports the
	// replica's position and lag.
	Replica *core.Replica
}

// DefaultQueueDepth is the admission waiting room used when Config leaves
// QueueDepth zero.
const DefaultQueueDepth = 64

// Server handles the HTTP API.
type Server struct {
	eng     *core.Engine
	timeout time.Duration
	sem     chan struct{} // in-flight evaluation slots
	queue   chan struct{} // bounded waiting room behind the slots
	log     *slog.Logger
	slow    time.Duration // slow-query log threshold (0: off)
	pprof   bool
	build   BuildInfo
	replica *core.Replica // non-nil: read-only follower
	start   time.Time
	bootID  string // per-construction prefix of request IDs
	reqSeq  atomic.Uint64
}

// New builds a server from the config.
func New(cfg Config) *Server {
	eng := cfg.Engine
	if eng == nil {
		eng = core.NewEngine()
	}
	timeout := cfg.Timeout
	if timeout <= 0 {
		timeout = 30 * time.Second
	}
	slots := cfg.MaxInFlight
	if slots <= 0 {
		slots = par.Workers(0)
	}
	depth := cfg.QueueDepth
	if depth == 0 {
		depth = DefaultQueueDepth
	}
	if depth < 0 {
		depth = 0
	}
	logger := cfg.Logger
	if logger == nil {
		logger = slog.Default()
	}
	build := cfg.Build
	if build.Version == "" {
		build.Version = "dev"
	}
	if build.Go == "" {
		build.Go = runtime.Version()
	}
	now := time.Now()
	registerBuildInfo(build)
	return &Server{
		eng:     eng,
		timeout: timeout,
		sem:     make(chan struct{}, slots),
		queue:   make(chan struct{}, depth),
		log:     logger,
		slow:    cfg.SlowQueryThreshold,
		pprof:   cfg.EnablePprof,
		build:   build,
		replica: cfg.Replica,
		start:   now,
		bootID:  fmt.Sprintf("%08x", uint32(now.UnixNano())),
	}
}

// Handler returns the HTTP handler with all routes mounted. Every route runs
// under the observability middleware (request ID + per-route metrics); the
// route label is the mount pattern, so path parameters never explode the
// label space.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /query", s.instrument("/query", s.handleQuery))
	mux.HandleFunc("POST /explain", s.instrument("/explain", s.handleExplain))
	mux.HandleFunc("GET /catalog", s.instrument("/catalog", s.handleCatalog))
	mux.HandleFunc("POST /catalog/relations", s.instrument("/catalog/relations", s.primaryOnly(s.handleRegister)))
	mux.HandleFunc("DELETE /catalog/relations/{name}", s.instrument("/catalog/relations/{name}", s.primaryOnly(s.handleDrop)))
	mux.HandleFunc("POST /catalog/relations/{name}/insert", s.instrument("/catalog/relations/{name}/insert", s.primaryOnly(s.handleMutate(false))))
	mux.HandleFunc("POST /catalog/relations/{name}/delete", s.instrument("/catalog/relations/{name}/delete", s.primaryOnly(s.handleMutate(true))))
	mux.HandleFunc("POST /views", s.instrument("/views", s.primaryOnly(s.handleCreateView)))
	mux.HandleFunc("GET /views", s.instrument("/views", s.handleListViews))
	mux.HandleFunc("GET /views/{name}", s.instrument("/views/{name}", s.handleGetView))
	mux.HandleFunc("GET /views/{name}/explain", s.instrument("/views/{name}/explain", s.handleExplainView))
	mux.HandleFunc("DELETE /views/{name}", s.instrument("/views/{name}", s.primaryOnly(s.handleDropView)))
	mux.HandleFunc("POST /admin/checkpoint", s.instrument("/admin/checkpoint", s.primaryOnly(s.handleCheckpoint)))
	mux.HandleFunc("POST /admin/resume", s.instrument("/admin/resume", s.primaryOnly(s.handleResume)))
	mux.HandleFunc("GET /healthz", s.instrument("/healthz", s.handleHealthz))
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	// Workload introspection serves identically on primaries and replicas:
	// these are read-only views of this node's own workload.
	mux.HandleFunc("GET /stats/statements", s.instrument("/stats/statements", s.handleStatements))
	mux.HandleFunc("GET /stats/planner", s.instrument("/stats/planner", s.handlePlanner))
	mux.HandleFunc("POST /stats/reset", s.instrument("/stats/reset", s.handleStatsReset))
	mux.HandleFunc("GET /stats/activity", s.instrument("/stats/activity", s.handleActivity))
	mux.HandleFunc("POST /stats/activity/{id}/cancel", s.instrument("/stats/activity/{id}/cancel", s.handleActivityCancel))
	mux.HandleFunc("GET /debug/flight", s.instrument("/debug/flight", s.handleFlight))
	if src := s.eng.ReplSource(); src != nil {
		// This node has a WAL to ship: serve followers.
		mux.HandleFunc("GET /repl/segments", s.instrument("/repl/segments", src.ServeSegments))
		mux.HandleFunc("GET /repl/snapshot", s.instrument("/repl/snapshot", src.ServeSnapshot))
		mux.HandleFunc("GET /repl/status", s.instrument("/repl/status", src.ServeStatus))
	} else if s.replica != nil {
		// A follower has no WAL to ship but its own position to report.
		mux.HandleFunc("GET /repl/status", s.instrument("/repl/status", s.handleReplStatus))
	}
	if s.pprof {
		mux.HandleFunc("GET /debug/pprof/", pprof.Index)
		mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	}
	return mux
}

// primaryOnly gates a mutating route on a follower: replicas serve reads
// only, so mutations answer 503 with the primary's URL (the client should
// retry there). On a primary it is a pass-through.
func (s *Server) primaryOnly(h http.HandlerFunc) http.HandlerFunc {
	if s.replica == nil {
		return h
	}
	return func(w http.ResponseWriter, r *http.Request) {
		st := s.replica.Status()
		w.Header().Set("X-Repl-Primary", st.Primary)
		s.error(w, r, http.StatusServiceUnavailable,
			"read-only replica: mutations go to the primary at %s", st.Primary)
	}
}

// handleHealthz reports liveness, the degraded/healthy write state, the
// admission gauges, and — when the engine runs with a data dir — the WAL
// and recovery stats of the durability layer. The response stays 200 and
// "ok" stays true even when degraded: both are pure liveness (the server is
// alive and serving reads), so restart probes keyed on them never kill a
// read-serving node. "status" and "degraded" carry the write health.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	deg, cause, since := s.eng.Degraded()
	out := map[string]any{
		"ok":             true,
		"status":         "ok",
		"degraded":       deg,
		"in_flight":      len(s.sem),
		"queued":         len(s.queue),
		"uptime_seconds": time.Since(s.start).Seconds(),
		"build":          s.build,
	}
	if deg {
		out["status"] = "degraded"
		out["cause"] = cause.Error()
		out["since"] = since.UTC().Format(time.RFC3339Nano)
	}
	if ps := s.eng.PersistenceStats(); ps.Enabled {
		out["persistence"] = ps
		if ps.LastCheckpointUnix > 0 {
			out["last_checkpoint_age_seconds"] = time.Since(time.Unix(ps.LastCheckpointUnix, 0)).Seconds()
		}
	}
	if s.replica != nil {
		out["role"] = "replica"
		out["replication"] = s.replica.Status()
	} else {
		out["role"] = "primary"
	}
	writeJSON(w, http.StatusOK, out)
}

// handleResume asks a degraded engine to probe the disk and re-arm writes.
// 409 without a data dir, 503 while the disk is still failing, 200 with the
// (now healthy) state once the probe succeeds. Resuming a healthy engine is
// a no-op 200.
func (s *Server) handleResume(w http.ResponseWriter, r *http.Request) {
	if err := s.eng.Resume(); err != nil {
		status := http.StatusServiceUnavailable
		if errors.Is(err, core.ErrNoPersistence) {
			status = http.StatusConflict
		}
		s.error(w, r, status, "%v", err)
		return
	}
	deg, _, _ := s.eng.Degraded()
	writeJSON(w, http.StatusOK, map[string]any{"resumed": true, "degraded": deg})
}

// handleCheckpoint triggers a synchronous durability checkpoint: capture
// under the mutation freeze, atomic snapshot + manifest install, WAL
// truncation. 409 when the server runs without a data dir; I/O failures of
// an attached durability layer are 500s.
func (s *Server) handleCheckpoint(w http.ResponseWriter, r *http.Request) {
	info, err := s.eng.Checkpoint()
	if err != nil {
		status := http.StatusInternalServerError
		if errors.Is(err, core.ErrNoPersistence) {
			status = http.StatusConflict
		}
		s.error(w, r, status, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, info)
}

// Drain blocks until every in-flight query has released its admission slot
// (new work keeps queueing behind the acquired slots), or until ctx
// expires. Graceful shutdown calls it between closing the listener and
// closing the engine's WAL.
func (s *Server) Drain(ctx context.Context) error {
	for i := 0; i < cap(s.sem); i++ {
		select {
		case s.sem <- struct{}{}:
		case <-ctx.Done():
			// Give back what was acquired so a timed-out drain leaves the
			// server serving rather than wedged.
			for ; i > 0; i-- {
				<-s.sem
			}
			return fmt.Errorf("server: drain: slots still busy: %w", ctx.Err())
		}
	}
	return nil
}

type queryRequest struct {
	Query string `json:"query"`
	// TimeoutMs lowers the server's per-query timeout for this request.
	TimeoutMs int64 `json:"timeout_ms,omitempty"`
	// Analyze on /explain executes the query and returns the actual plan.
	Analyze bool `json:"analyze,omitempty"`
	// Limit > 0 paginates the result: tuples are served in canonical sorted
	// order, at most Limit per response, with an opaque next_cursor.
	Limit int `json:"limit,omitempty"`
	// Cursor resumes a paginated result from a previous next_cursor.
	Cursor string `json:"cursor,omitempty"`
}

type queryResponse struct {
	Columns   []string  `json:"columns"`
	Tuples    [][]int64 `json:"tuples"`
	Rows      int       `json:"rows"` // total result size, not the page size
	Plan      string    `json:"plan"`
	PlanCache bool      `json:"plan_cached"`
	// ResultCache reports a sorted-result cache hit: this page was sliced
	// from a cached sorted result, with no re-evaluation or re-sort.
	ResultCache bool    `json:"result_cached,omitempty"`
	ElapsedMs   float64 `json:"elapsed_ms"`
	// NextCursor resumes the next page; empty when the result is exhausted.
	NextCursor string `json:"next_cursor,omitempty"`
}

type errorResponse struct {
	Error string `json:"error"`
	// RequestID correlates this failure with the server's logs, traces and
	// the X-Request-Id response header.
	RequestID string `json:"request_id,omitempty"`
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

// error writes a JSON error body carrying the request's correlation ID, so a
// client-side report ("my insert got a 503, request abc-000042") matches a
// server-side log line mechanically. Server-fault statuses are logged.
func (s *Server) error(w http.ResponseWriter, r *http.Request, status int, format string, args ...any) {
	// Shedding statuses carry Retry-After: the condition is transient
	// (queue drains, disk heals) and well-behaved clients should back off,
	// not hammer.
	if status == http.StatusTooManyRequests || status == http.StatusServiceUnavailable {
		w.Header().Set("Retry-After", "1")
	}
	msg := fmt.Sprintf(format, args...)
	rid := RequestID(r)
	if status >= 500 {
		s.log.Error("request failed", "request_id", rid, "status", status,
			"method", r.Method, "path", r.URL.Path, "error", msg)
	}
	writeJSON(w, status, errorResponse{Error: msg, RequestID: rid})
}

func (s *Server) decodeBody(w http.ResponseWriter, r *http.Request, v any) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 64<<20))
	if err := dec.Decode(v); err != nil {
		s.error(w, r, http.StatusBadRequest, "bad request body: %v", err)
		return false
	}
	return true
}

// requestTimeout resolves the effective timeout for one request.
func (s *Server) requestTimeout(req queryRequest) time.Duration {
	t := s.timeout
	if req.TimeoutMs > 0 {
		if rt := time.Duration(req.TimeoutMs) * time.Millisecond; rt < t {
			t = rt
		}
	}
	return t
}

// admit acquires an evaluation slot. A free slot admits immediately; when
// every slot is busy the request joins the bounded waiting room, and when
// that too is full — or the deadline expires while queued — the request is
// shed with ErrOverloaded so load beyond the configured depth turns into
// fast 429s instead of an unbounded pile of blocked goroutines. The
// explicit Err check first keeps an already-expired deadline from racing a
// free slot in the select.
func (s *Server) admit(ctx context.Context) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	select {
	case s.sem <- struct{}{}:
		return nil
	default:
	}
	select {
	case s.queue <- struct{}{}:
	default:
		return fmt.Errorf("%w: %d in flight, %d queued", ErrOverloaded, len(s.sem), len(s.queue))
	}
	defer func() { <-s.queue }()
	select {
	case s.sem <- struct{}{}:
		return nil
	case <-ctx.Done():
		return fmt.Errorf("%w: deadline expired while queued (%v)", ErrOverloaded, ctx.Err())
	}
}

func (s *Server) release() { <-s.sem }

// testHookEvaluate, when non-nil, replaces the engine call inside the panic
// guard. Tests use it to inject panics and verify the isolation; production
// code never sets it.
var testHookEvaluate func(ctx context.Context, q string) (*query.Result, error)

// testHookViewRead, when non-nil, runs inside the panic guard of a view read
// ahead of the read itself; tests inject panics through it.
var testHookViewRead func()

// testHookCreateView, when non-nil, runs inside the panic guard of a view
// registration ahead of the registration itself; tests inject panics
// through it.
var testHookCreateView func()

// guarded runs one engine call under the envelope every evaluating route
// shares: a timeout context, an admission slot held for the duration of the
// call, and the panic guard, so a panic anywhere in the engine is this
// request's 500 and never the connection's death. q labels the call in the
// crash log. The call runs in this goroutine (no orphaned work on timeout:
// the executor polls the context between plan operators).
func guarded[T any](s *Server, r *http.Request, timeout time.Duration, q string, fn func(ctx context.Context) (T, error)) (T, error) {
	ctx, cancel := context.WithTimeout(r.Context(), timeout)
	defer cancel()
	if err := s.admit(ctx); err != nil {
		var zero T
		return zero, err
	}
	defer s.release()
	return guardPanic(s.log, RequestID(r), q, s.flightDump, func() (T, error) { return fn(ctx) })
}

// evaluate runs one query under the request envelope.
func (s *Server) evaluate(r *http.Request, req queryRequest) (*query.Result, error) {
	res, err := guarded(s, r, s.requestTimeout(req), req.Query, func(ctx context.Context) (*query.Result, error) {
		if testHookEvaluate != nil {
			return testHookEvaluate(ctx, req.Query)
		}
		start := time.Now()
		res, err := s.eng.QueryRows(ctx, req.Query)
		if err == nil && res != nil {
			s.noteSlow(r, req.Query, time.Since(start), res.Len(), res.Plan.CacheHit)
		}
		return res, err
	})
	if err != nil {
		s.noteShed(r, req.Query, err)
	}
	return res, err
}

// noteSlow emits the structured slow-query log record when the evaluation
// crossed the configured threshold.
func (s *Server) noteSlow(r *http.Request, q string, elapsed time.Duration, rows int, planCached bool) {
	if s.slow <= 0 || elapsed < s.slow {
		return
	}
	s.log.Warn("slow query",
		"request_id", RequestID(r),
		"query", q,
		"elapsed_ms", float64(elapsed.Microseconds())/1000,
		"rows", rows,
		"plan_cached", planCached,
		"threshold_ms", float64(s.slow.Microseconds())/1000)
}

// guardPanic confines a panicking evaluation to its own request: the panic
// and stack are logged with the request's correlation ID, the caller gets
// ErrInternal (a 500), and every other in-flight request is untouched.
// Without it a single poisoned query would tear down the whole connection
// via net/http's recover. flight, when non-nil, supplies the flight
// recorder's recent traces for the crash log — the queries that completed
// just before the panic are usually the context that explains it.
func guardPanic[T any](logger *slog.Logger, rid, q string, flight func() string, fn func() (T, error)) (out T, err error) {
	defer func() {
		if v := recover(); v != nil {
			attrs := []any{
				"request_id", rid, "query", q, "panic", fmt.Sprint(v), "stack", string(debug.Stack()),
			}
			if flight != nil {
				attrs = append(attrs, "recent_flight", flight())
			}
			logger.Error("query panic", attrs...)
			var zero T
			out, err = zero, fmt.Errorf("%w: query panicked: %v", ErrInternal, v)
		}
	}()
	return fn()
}

// statusFor maps evaluation errors to distinct HTTP statuses: shed load and
// degraded storage are retryable (429/503 + Retry-After), a tripped memory
// budget is the request's own weight (422), timeouts are 504/408, panics
// 500, and anything else is a malformed query (400).
func statusFor(err error) int {
	switch {
	case errors.Is(err, ErrOverloaded):
		return http.StatusTooManyRequests
	case errors.Is(err, govern.ErrBudgetExceeded):
		return http.StatusUnprocessableEntity
	case errors.Is(err, core.ErrDegraded):
		return http.StatusServiceUnavailable
	case errors.Is(err, ErrInternal):
		return http.StatusInternalServerError
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout
	case errors.Is(err, context.Canceled):
		return http.StatusRequestTimeout
	default:
		return http.StatusBadRequest
	}
}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	var req queryRequest
	if !s.decodeBody(w, r, &req) {
		return
	}
	start := time.Now()
	if req.Limit > 0 || req.Cursor != "" {
		s.handleQueryPage(w, r, req, start)
		return
	}
	res, err := s.evaluate(r, req)
	if err != nil {
		s.error(w, r, statusFor(err), "query failed: %v", err)
		return
	}
	// Every check that can fail has run: the rows are projected from the
	// answer's last form as the writer formats them.
	writeRows(w, &resultBody{res: res, q: queryResponse{
		Columns:   res.Columns,
		Rows:      res.Len(),
		Plan:      res.Plan.String(),
		PlanCache: res.Plan.CacheHit,
		ElapsedMs: float64(time.Since(start).Microseconds()) / 1000,
	}})
}

// handleQueryPage serves one page of a sorted result through the engine's
// sorted-result cache: the first page of a sequence evaluates and sorts
// once, later pages (and repeats of the same query while its relations are
// unmutated) slice the cached sorted tuples.
func (s *Server) handleQueryPage(w http.ResponseWriter, r *http.Request, req queryRequest, start time.Time) {
	offset, err := decodeCursor(req.Cursor)
	if err != nil {
		s.error(w, r, http.StatusBadRequest, "%v", err)
		return
	}
	res, err := guarded(s, r, s.requestTimeout(req), req.Query, func(ctx context.Context) (catalog.SortedResult, error) {
		return s.eng.QuerySorted(ctx, req.Query)
	})
	if err != nil {
		s.noteShed(r, req.Query, err)
		s.error(w, r, statusFor(err), "query failed: %v", err)
		return
	}
	s.noteSlow(r, req.Query, time.Since(start), len(res.Tuples), res.PlanCached)
	offset = min(offset, len(res.Tuples))
	tuples := res.Tuples[offset:]
	if req.Limit > 0 && req.Limit < len(tuples) {
		tuples = tuples[:req.Limit]
	}
	writeRows(w, &queryResponse{
		Columns:     res.Columns,
		Tuples:      tuples,
		Rows:        len(res.Tuples),
		Plan:        res.Plan,
		PlanCache:   res.PlanCached,
		ResultCache: res.Cached,
		ElapsedMs:   float64(time.Since(start).Microseconds()) / 1000,
		NextCursor:  nextCursor(offset+len(tuples), len(res.Tuples)),
	})
}

// cursorPrefix versions the opaque pagination cursor.
const cursorPrefix = "v1:"

// decodeCursor returns the row offset an opaque pagination cursor resumes
// at; the empty cursor starts at row 0.
func decodeCursor(cursor string) (int, error) {
	if cursor == "" {
		return 0, nil
	}
	raw, err := base64.URLEncoding.DecodeString(cursor)
	if err != nil || !strings.HasPrefix(string(raw), cursorPrefix) {
		return 0, fmt.Errorf("malformed cursor %q", cursor)
	}
	offset, err := strconv.Atoi(strings.TrimPrefix(string(raw), cursorPrefix))
	if err != nil || offset < 0 {
		return 0, fmt.Errorf("malformed cursor %q", cursor)
	}
	return offset, nil
}

// limitParam parses the ?limit=N parameter of the GET routes that page or
// truncate (absent: 0, no limit). A malformed or negative value answers 400
// and reports false.
func (s *Server) limitParam(w http.ResponseWriter, r *http.Request) (int, bool) {
	lq := r.URL.Query().Get("limit")
	if lq == "" {
		return 0, true
	}
	n, err := strconv.Atoi(lq)
	if err != nil || n < 0 {
		s.error(w, r, http.StatusBadRequest, "malformed limit %q", lq)
		return 0, false
	}
	return n, true
}

// nextCursor returns the cursor that resumes a result of total rows after
// row end, or "" when the page reached the end.
func nextCursor(end, total int) string {
	if end >= total {
		return ""
	}
	return base64.URLEncoding.EncodeToString([]byte(cursorPrefix + strconv.Itoa(end)))
}

type explainResponse struct {
	Plan       string   `json:"plan"`
	Strategies []string `json:"strategies"`
	Predicted  bool     `json:"predicted"`
	PlanCache  bool     `json:"plan_cached"`
	// Analyzed marks an EXPLAIN ANALYZE response: the plan carries measured
	// per-node times next to the cost model's est|OUT| predictions, and the
	// phase/budget fields below are populated.
	Analyzed    bool    `json:"analyzed,omitempty"`
	PrepareMs   float64 `json:"prepare_ms,omitempty"`
	ExecMs      float64 `json:"exec_ms,omitempty"`
	BudgetBytes int64   `json:"budget_bytes,omitempty"`
}

func (s *Server) handleExplain(w http.ResponseWriter, r *http.Request) {
	var req queryRequest
	if !s.decodeBody(w, r, &req) {
		return
	}
	var plan *query.Plan
	if req.Analyze {
		res, err := s.evaluate(r, req)
		if err != nil {
			s.error(w, r, statusFor(err), "explain analyze failed: %v", err)
			return
		}
		plan = res.Plan
		plan.Analyzed = true
	} else {
		// Compilation runs the full semijoin reduction (and, for cyclic
		// queries, bag materialization), so EXPLAIN goes through the same
		// admission gate and timeout as query evaluation.
		p, err := guarded(s, r, s.requestTimeout(req), req.Query, func(ctx context.Context) (*query.Plan, error) {
			return s.eng.ExplainQueryContext(ctx, req.Query)
		})
		if err != nil {
			s.error(w, r, statusFor(err), "explain failed: %v", err)
			return
		}
		plan = p
	}
	out := explainResponse{
		Plan:       plan.String(),
		Strategies: plan.Strategies(),
		Predicted:  plan.Predicted,
		PlanCache:  plan.CacheHit,
	}
	if plan.Analyzed {
		out.Analyzed = true
		out.PrepareMs = float64(plan.PrepareNs) / 1e6
		out.ExecMs = float64(plan.ExecNs) / 1e6
		out.BudgetBytes = plan.BudgetBytes
	}
	writeJSON(w, http.StatusOK, out)
}

type catalogResponse struct {
	Epoch     uint64         `json:"epoch"`
	Relations []relationInfo `json:"relations"`
	CacheHits uint64         `json:"plan_cache_hits"`
	CacheMiss uint64         `json:"plan_cache_misses"`
	CacheSize int            `json:"plan_cache_size"`
}

type relationInfo struct {
	Name       string  `json:"name"`
	Tuples     int     `json:"tuples"`
	Sets       int     `json:"sets"`
	Domain     int     `json:"domain"`
	AvgSetSize float64 `json:"avg_set_size"`
}

func (s *Server) handleCatalog(w http.ResponseWriter, r *http.Request) {
	cat := s.eng.Catalog()
	infos := cat.List()
	out := catalogResponse{Epoch: cat.Epoch(), Relations: make([]relationInfo, 0, len(infos))}
	out.CacheHits, out.CacheMiss, out.CacheSize = cat.CacheStats()
	for _, in := range infos {
		out.Relations = append(out.Relations, relationInfo{
			Name: in.Name, Tuples: in.Stats.Tuples, Sets: in.Stats.NumSets,
			Domain: in.Stats.DomainSize, AvgSetSize: in.Stats.AvgSetSize,
		})
	}
	writeJSON(w, http.StatusOK, out)
}

type registerRequest struct {
	Name  string     `json:"name"`
	Pairs [][2]int32 `json:"pairs,omitempty"`
	Path  string     `json:"path,omitempty"`
}

func (s *Server) handleRegister(w http.ResponseWriter, r *http.Request) {
	var req registerRequest
	if !s.decodeBody(w, r, &req) {
		return
	}
	if req.Name == "" {
		s.error(w, r, http.StatusBadRequest, "relation name is required")
		return
	}
	// Stats come from the relation we just registered, not a catalog
	// re-fetch — a concurrent DELETE must not turn this into a nil deref.
	cat := s.eng.Catalog()
	var rel *relation.Relation
	switch {
	case req.Path != "":
		loaded, err := cat.LoadFile(req.Name, req.Path)
		if err != nil {
			s.error(w, r, clientStatus(err), "%v", err)
			return
		}
		rel = loaded
	default:
		ps := make([]relation.Pair, len(req.Pairs))
		for i, p := range req.Pairs {
			ps[i] = relation.Pair{X: p[0], Y: p[1]}
		}
		loaded, err := cat.RegisterPairs(req.Name, ps)
		if err != nil {
			s.error(w, r, clientStatus(err), "%v", err)
			return
		}
		rel = loaded
	}
	st := rel.Stats()
	writeJSON(w, http.StatusOK, relationInfo{
		Name: req.Name, Tuples: st.Tuples, Sets: st.NumSets,
		Domain: st.DomainSize, AvgSetSize: st.AvgSetSize,
	})
}

// clientStatus classifies errors from endpoints whose failures are normally
// the caller's fault (400), still surfacing a degraded engine as 503.
func clientStatus(err error) int {
	if errors.Is(err, core.ErrDegraded) {
		return http.StatusServiceUnavailable
	}
	return http.StatusBadRequest
}

func (s *Server) handleDrop(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	present, err := s.eng.Catalog().Drop(name)
	if err != nil {
		// A durability-sink veto: the relation still exists, nothing changed.
		s.error(w, r, mutationStatus(err), "%v", err)
		return
	}
	if !present {
		s.error(w, r, http.StatusNotFound, "unknown relation %q", name)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"dropped": name})
}

// mutationStatus maps catalog-mutation errors: unknown relation is the
// caller's mistake (404), a degraded read-only engine is a retryable
// operational state (503 + Retry-After), and anything else (a WAL append
// failure, say) is an operational server error (500) that must not read as
// "not found".
func mutationStatus(err error) int {
	switch {
	case errors.Is(err, catalog.ErrUnknownRelation):
		return http.StatusNotFound
	case errors.Is(err, core.ErrDegraded):
		return http.StatusServiceUnavailable
	default:
		return http.StatusInternalServerError
	}
}

type mutateRequest struct {
	Pairs [][2]int32 `json:"pairs"`
}

type mutateResponse struct {
	Name string `json:"name"`
	// Added and Removed count the effective (coalesced) tuple delta.
	Added   int    `json:"added"`
	Removed int    `json:"removed"`
	Tuples  int    `json:"tuples"`
	Version uint64 `json:"version"`
	Epoch   uint64 `json:"epoch"`
	// ElapsedMs includes synchronous view maintenance.
	ElapsedMs float64 `json:"elapsed_ms"`
}

// handleMutate serves POST /catalog/relations/{name}/insert|delete. The
// response reports the effective delta; registered views are maintained
// synchronously before it is written.
func (s *Server) handleMutate(del bool) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		var req mutateRequest
		if !s.decodeBody(w, r, &req) {
			return
		}
		name := r.PathValue("name")
		ps := make([]relation.Pair, len(req.Pairs))
		for i, p := range req.Pairs {
			ps[i] = relation.Pair{X: p[0], Y: p[1]}
		}
		start := time.Now()
		var m catalog.Mutation
		var err error
		if del {
			m, err = s.eng.Mutate(name, nil, ps)
		} else {
			m, err = s.eng.Mutate(name, ps, nil)
		}
		if err != nil {
			s.error(w, r, mutationStatus(err), "%v", err)
			return
		}
		writeJSON(w, http.StatusOK, mutateResponse{
			Name:      name,
			Added:     len(m.Added),
			Removed:   len(m.Removed),
			Tuples:    m.New.Size(),
			Version:   m.Version,
			Epoch:     m.Epoch,
			ElapsedMs: float64(time.Since(start).Microseconds()) / 1000,
		})
	}
}

type createViewRequest struct {
	Name  string `json:"name"`
	Query string `json:"query"`
}

type viewInfoResponse struct {
	Name      string         `json:"name"`
	Query     string         `json:"query"`
	Rows      int            `json:"rows"`
	Freshness view.Freshness `json:"freshness"`
}

func (s *Server) handleCreateView(w http.ResponseWriter, r *http.Request) {
	var req createViewRequest
	if !s.decodeBody(w, r, &req) {
		return
	}
	// Registering compiles and evaluates the definition, so it runs under
	// the same envelope as a query: a panic in there is this request's 500
	// and the admission slot comes back on every path.
	v, err := guarded(s, r, s.timeout, req.Query, func(ctx context.Context) (*view.View, error) {
		if testHookCreateView != nil {
			testHookCreateView()
		}
		return s.eng.RegisterView(ctx, req.Name, req.Query)
	})
	if err != nil {
		s.error(w, r, statusFor(err), "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, viewInfoResponse{
		Name: v.Name(), Query: v.Text(), Rows: v.Rows(), Freshness: v.Freshness(),
	})
}

func (s *Server) handleListViews(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"views": s.eng.Views()})
}

type viewResultResponse struct {
	Name    string    `json:"name"`
	Query   string    `json:"query"`
	Columns []string  `json:"columns"`
	Tuples  [][]int64 `json:"tuples"`
	Rows    int       `json:"rows"` // total result size, not the page size
	// Freshness is the maintenance metadata the result was served under.
	Freshness  view.Freshness `json:"freshness"`
	NextCursor string         `json:"next_cursor,omitempty"`
}

// handleGetView serves one view's materialized result with freshness
// metadata, paginated via ?limit=N&cursor=C (the view store keeps tuples in
// canonical sorted order, so pages are consistent for a fixed view state).
func (s *Server) handleGetView(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	v, ok := s.eng.View(name)
	if !ok {
		s.error(w, r, http.StatusNotFound, "unknown view %q", name)
		return
	}
	limit, ok := s.limitParam(w, r)
	if !ok {
		return
	}
	offset, err := decodeCursor(r.URL.Query().Get("cursor"))
	if err != nil {
		s.error(w, r, http.StatusBadRequest, "%v", err)
		return
	}
	// Reading a stale refresh-mode view recomputes it from scratch, so the
	// read goes through the same admission gate as query evaluation.
	var cols []string
	var total int
	var fresh view.Freshness
	tuples, err := guarded(s, r, s.timeout, v.Text(), func(ctx context.Context) (tuples [][]int64, err error) {
		if testHookViewRead != nil {
			testHookViewRead()
		}
		cols, tuples, total, fresh, err = v.Page(ctx, offset, limit)
		return tuples, err
	})
	if err != nil {
		s.error(w, r, statusFor(err), "%v", err)
		return
	}
	writeRows(w, &viewResultResponse{
		Name: name, Query: v.Text(), Columns: cols, Tuples: tuples,
		Rows: total, Freshness: fresh, NextCursor: nextCursor(offset+len(tuples), total),
	})
}

// handleExplainView serves the view's maintenance plan (EXPLAIN for the
// update path: how deltas propagate, with predicted per-delta costs).
func (s *Server) handleExplainView(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	v, ok := s.eng.View(name)
	if !ok {
		s.error(w, r, http.StatusNotFound, "unknown view %q", name)
		return
	}
	plan := v.MaintenancePlan()
	writeJSON(w, http.StatusOK, map[string]any{
		"plan":      plan.String(),
		"mode":      v.Mode(),
		"freshness": v.Freshness(),
	})
}

func (s *Server) handleDropView(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	present, err := s.eng.DropView(name)
	if err != nil {
		// A durability-log failure: the view still exists, nothing changed.
		s.error(w, r, mutationStatus(err), "%v", err)
		return
	}
	if !present {
		s.error(w, r, http.StatusNotFound, "unknown view %q", name)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"dropped": name})
}
