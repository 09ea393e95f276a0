package server

import (
	"encoding/json"
	"errors"
	"net/http"
	"strconv"

	"repro/internal/stats"
)

// Workload-introspection surfaces: GET /stats/statements (per-fingerprint
// aggregates), POST /stats/reset, GET /stats/activity (+ external kill via
// POST /stats/activity/{id}/cancel) and GET /debug/flight (recently
// completed query traces). All of them serve on primaries and read-only
// replicas alike — a follower's workload is exactly what these exist to
// explain — and every response is tagged with the node's role.

// role names this node for the introspection envelopes.
func (s *Server) role() string {
	if s.replica != nil {
		return "replica"
	}
	return "primary"
}

// handleStatements serves GET /stats/statements?sort=<key>&limit=N: the
// statement sheet sorted descending by total_ms (default), calls, mean_ms,
// max_ms, rows or errors.
func (s *Server) handleStatements(w http.ResponseWriter, r *http.Request) {
	sortBy := r.URL.Query().Get("sort")
	switch sortBy {
	case "", stats.SortCalls, stats.SortTotalMs, stats.SortMeanMs, stats.SortMaxMs, stats.SortRows, stats.SortErrors:
	default:
		s.error(w, r, http.StatusBadRequest, "unknown sort key %q", sortBy)
		return
	}
	limit, ok := s.limitParam(w, r)
	if !ok {
		return
	}
	rows := s.eng.StatementStats().Snapshot(sortBy, limit)
	writeJSON(w, http.StatusOK, map[string]any{
		"role":       s.role(),
		"sort":       orDefault(sortBy, stats.SortTotalMs),
		"count":      len(rows),
		"statements": rows,
	})
}

func orDefault(v, def string) string {
	if v == "" {
		return def
	}
	return v
}

// handlePlanner serves GET /stats/planner?sort=K&limit=N: the statement
// sheet's planner-accuracy view (rows with audited nodes only), ranked by
// call-weighted error magnitude by default, with per-fingerprint decision
// history and the optimizer's constant/drift report.
func (s *Server) handlePlanner(w http.ResponseWriter, r *http.Request) {
	sortBy := r.URL.Query().Get("sort")
	switch sortBy {
	case "", stats.PlannerSortScore, stats.PlannerSortCalls, stats.PlannerSortNodes,
		stats.PlannerSortNearMargin, stats.PlannerSortWorst:
	default:
		s.error(w, r, http.StatusBadRequest, "unknown sort key %q", sortBy)
		return
	}
	limit, ok := s.limitParam(w, r)
	if !ok {
		return
	}
	rows := s.eng.StatementStats().PlannerSnapshot(sortBy, limit)
	writeJSON(w, http.StatusOK, map[string]any{
		"role":         s.role(),
		"sort":         orDefault(sortBy, stats.PlannerSortScore),
		"count":        len(rows),
		"constants":    s.eng.Optimizer().ConstantsInfo(),
		"fingerprints": rows,
	})
}

// handleStatsReset serves POST /stats/reset: drop every row of the statement
// sheet, and with it both views, in one step. dropped_planner counts the
// dropped rows that had planner-accuracy aggregates. Cumulative /metrics
// counters are unaffected.
func (s *Server) handleStatsReset(w http.ResponseWriter, r *http.Request) {
	n, np := s.eng.StatementStats().Reset()
	writeJSON(w, http.StatusOK, map[string]any{"reset": true, "dropped": n, "dropped_planner": np})
}

// handleActivity serves GET /stats/activity: every in-flight query with its
// id, correlation id, fingerprint, elapsed time, current plan node and
// rows/bytes so far.
func (s *Server) handleActivity(w http.ResponseWriter, r *http.Request) {
	active := s.eng.Activity().List()
	writeJSON(w, http.StatusOK, map[string]any{
		"role":   s.role(),
		"count":  len(active),
		"active": active,
	})
}

// handleActivityCancel serves POST /stats/activity/{id}/cancel: kill one
// running query from outside. The kill is cooperative — the query's context
// is cancelled and the executor's Stop hooks unwind it at the next kernel
// poll point — so the 200 means "kill delivered", and the query's own
// request answers 408 with its partial work discarded.
func (s *Server) handleActivityCancel(w http.ResponseWriter, r *http.Request) {
	id, err := strconv.ParseUint(r.PathValue("id"), 10, 64)
	if err != nil {
		s.error(w, r, http.StatusBadRequest, "malformed activity id %q", r.PathValue("id"))
		return
	}
	if !s.eng.Activity().Cancel(id) {
		s.error(w, r, http.StatusNotFound, "no in-flight query with id %d", id)
		return
	}
	s.log.Warn("query killed via /stats/activity",
		"request_id", RequestID(r), "killed_id", id)
	writeJSON(w, http.StatusOK, map[string]any{"killed": id})
}

// handleFlight serves GET /debug/flight?limit=N: the flight recorder's
// retained query traces, newest first, plus how many unremarkable queries
// were sampled out (what the ring is not showing).
func (s *Server) handleFlight(w http.ResponseWriter, r *http.Request) {
	limit, ok := s.limitParam(w, r)
	if !ok {
		return
	}
	fl := s.eng.FlightRecorder()
	recs := fl.Snapshot(limit)
	writeJSON(w, http.StatusOK, map[string]any{
		"role":              s.role(),
		"count":             len(recs),
		"sampled_out":       fl.SampledOut(),
		"slow_threshold_ms": float64(fl.SlowThreshold().Nanoseconds()) / 1e6,
		"records":           recs,
	})
}

// flightDump renders the most recent flight records as one JSON string for
// the crash log: when a query panics, the last thing the flight recorder saw
// is usually the context that explains it.
func (s *Server) flightDump() string {
	recs := s.eng.FlightRecorder().Snapshot(8)
	if len(recs) == 0 {
		return "[]"
	}
	b, err := json.Marshal(recs)
	if err != nil {
		return "[]"
	}
	return string(b)
}

// handleReplStatus serves GET /repl/status on a follower: the replica's
// position, lag and recent lag history. (A primary's /repl/status is the
// shipping source's view and is mounted by Handler separately.)
func (s *Server) handleReplStatus(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.replica.Status())
}

// noteShed attributes an admission rejection to the statement that was shed,
// so overload shows up per-fingerprint in /stats/statements and in the
// flight recorder rather than only as an aggregate 429 count.
func (s *Server) noteShed(r *http.Request, q string, err error) {
	if errors.Is(err, ErrOverloaded) && q != "" {
		s.eng.NoteShed(r.Context(), q)
	}
}
