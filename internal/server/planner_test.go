package server

import (
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/stats"
)

// plannerEnvelope mirrors the GET /stats/planner response.
type plannerEnvelope struct {
	Role         string             `json:"role"`
	Sort         string             `json:"sort"`
	Count        int                `json:"count"`
	Constants    map[string]any     `json:"constants"`
	Fingerprints []stats.PlannerRow `json:"fingerprints"`
}

func findPlannerRow(rows []stats.PlannerRow, fp string) *stats.PlannerRow {
	for i := range rows {
		if rows[i].Fingerprint == fp {
			return &rows[i]
		}
	}
	return nil
}

// TestPlannerSheetAggregatesAndResets drives strategy-bearing queries through
// the live HTTP stack and asserts the misprediction sheet aggregates them per
// fingerprint with error ratios, margins and decision history, honors its
// sort params, and resets through the shared POST /stats/reset — also on a
// capped sheet, where both views must agree on the overflow bucket.
func TestPlannerSheetAggregatesAndResets(t *testing.T) {
	ts := newTestServer(t, Config{})
	registerChain(t, ts)

	for _, q := range []string{
		"Q(x, z) :- R(x, y), S(y, z)",
		"Q(x) :- R(x, y), S(y, 5)", // different fingerprint family
		"Q(x, z) :- R(x, y), S(y, z)",
	} {
		if code := post(t, ts, "/query", map[string]any{"query": q}, nil); code != http.StatusOK {
			t.Fatalf("query %q: status %d", q, code)
		}
	}

	var env plannerEnvelope
	if code := get(t, ts, "/stats/planner", &env); code != http.StatusOK {
		t.Fatalf("planner: status %d", code)
	}
	if env.Role != "primary" || env.Sort != stats.PlannerSortScore {
		t.Fatalf("envelope role=%q sort=%q", env.Role, env.Sort)
	}
	row := findPlannerRow(env.Fingerprints, "Q($0, $1) :- R($0, $2), S($2, $1)")
	if row == nil {
		t.Fatalf("no planner row for the chain query in %+v", env.Fingerprints)
	}
	if row.Calls != 2 || row.Nodes < 2 {
		t.Fatalf("chain row calls=%d nodes=%d, want 2 calls with audited nodes", row.Calls, row.Nodes)
	}
	if len(row.Decisions) == 0 {
		t.Fatal("decision history empty")
	}
	d := row.Decisions[0]
	if d.Strategy == "" || d.Margin <= 0 {
		t.Fatalf("decision record missing strategy/margin: %+v", d)
	}
	if len(row.Strategies) == 0 {
		t.Fatal("per-strategy error aggregates missing")
	}
	for s, se := range row.Strategies {
		if se.Nodes == 0 {
			t.Fatalf("strategy %q with zero nodes", s)
		}
	}
	// The tiny fold runs in well under a predicted-cost-comparable time, but
	// both sides of the ratio exist, so the error aggregates must be there.
	if row.Score <= 0 {
		t.Fatalf("score = %v, want > 0 (cost-error mass)", row.Score)
	}

	// The constants/drift report rides along.
	if env.Constants == nil {
		t.Fatal("constants report missing")
	}
	for _, k := range []string{"probed", "current", "observed", "drift_light", "near_margin_band"} {
		if _, ok := env.Constants[k]; !ok {
			t.Fatalf("constants report missing %q: %v", k, env.Constants)
		}
	}

	// Sort params: unknown key 400, valid keys + limit work.
	if code := get(t, ts, "/stats/planner?sort=nope", nil); code != http.StatusBadRequest {
		t.Fatalf("bad sort key: status %d", code)
	}
	if code := get(t, ts, "/stats/planner?sort=calls&limit=1", &env); code != http.StatusOK || env.Count != 1 {
		t.Fatalf("sorted+limited: status %d count %d", code, env.Count)
	}
	if code := get(t, ts, "/stats/planner?limit=zap", nil); code != http.StatusBadRequest {
		t.Fatalf("malformed limit: status %d", code)
	}

	// POST /stats/reset clears the planner view alongside the statement one.
	if reset := assertOneSheet(t, ts); reset.DroppedPlanner == 0 {
		t.Fatalf("reset dropped no planner rows: %+v", reset)
	}

	// A capped sheet: past MaxStatements the two-path query folds into the
	// overflow row on both views, and one reset empties both.
	capped := httptest.NewServer(New(Config{Engine: core.NewEngine(
		core.WithIntrospection(core.IntrospectionConfig{MaxStatements: 2}))}).Handler())
	defer capped.Close()
	if code := post(t, capped, "/catalog/relations", map[string]any{"name": "R", "pairs": [][2]int32{{1, 2}, {2, 3}}}, nil); code != http.StatusOK {
		t.Fatalf("register R: status %d", code)
	}
	for _, q := range []string{"Q(a, b) :- R(a, b)", "Q(a) :- R(a, b)", "Q(x, z) :- R(x, y), R(y, z)"} {
		if code := post(t, capped, "/query", map[string]any{"query": q}, nil); code != http.StatusOK {
			t.Fatalf("query %q: status %d", q, code)
		}
	}
	assertOneSheet(t, capped)
}

type resetResponse struct {
	Reset          bool `json:"reset"`
	Dropped        int  `json:"dropped"`
	DroppedPlanner int  `json:"dropped_planner"`
}

// assertOneSheet checks that /stats/planner names only fingerprints that
// /stats/statements names, then that POST /stats/reset leaves both views
// empty, and returns the reset response.
func assertOneSheet(t *testing.T, ts *httptest.Server) resetResponse {
	t.Helper()
	var senv statementsEnvelope
	var penv plannerEnvelope
	if code := get(t, ts, "/stats/statements", &senv); code != http.StatusOK {
		t.Fatalf("statements: status %d", code)
	}
	if code := get(t, ts, "/stats/planner", &penv); code != http.StatusOK || penv.Count == 0 {
		t.Fatalf("planner: status %d count %d", code, penv.Count)
	}
	for _, row := range penv.Fingerprints {
		if findStatement(senv.Statements, row.Fingerprint) == nil {
			t.Fatalf("planner row %q is not on /stats/statements %+v", row.Fingerprint, senv.Statements)
		}
	}
	var reset resetResponse
	if code := post(t, ts, "/stats/reset", map[string]any{}, &reset); code != http.StatusOK || !reset.Reset {
		t.Fatalf("reset: status %d %+v", code, reset)
	}
	if code := get(t, ts, "/stats/statements", &senv); code != http.StatusOK || senv.Count != 0 {
		t.Fatalf("statements after reset: status %d count %d", code, senv.Count)
	}
	if code := get(t, ts, "/stats/planner", &penv); code != http.StatusOK || penv.Count != 0 {
		t.Fatalf("planner after reset: status %d count %d", code, penv.Count)
	}
	return reset
}

// TestPlannerSheetOnReplica runs queries on a read-only follower and asserts
// the planner sheet serves there with role=replica — a follower's plan
// quality is exactly what the sheet exists to audit.
func TestPlannerSheetOnReplica(t *testing.T) {
	primary, follower, rep := newPrimaryFollower(t)
	registerChain(t, primary)
	waitFollower(t, rep, 2)

	if code := post(t, follower, "/query", map[string]any{"query": "Q(x, z) :- R(x, y), S(y, z)"}, nil); code != http.StatusOK {
		t.Fatalf("query on follower: status %d", code)
	}
	var env plannerEnvelope
	if code := get(t, follower, "/stats/planner", &env); code != http.StatusOK {
		t.Fatalf("planner on follower: status %d", code)
	}
	if env.Role != "replica" {
		t.Fatalf("role = %q, want replica", env.Role)
	}
	if env.Count == 0 {
		t.Fatal("follower planner sheet empty after a query")
	}
}

// TestExplainAnalyzeErrColumn asserts EXPLAIN ANALYZE renders the per-node
// err= column (predicted-vs-actual ratios) and plain EXPLAIN does not, while
// predicted-only plans still surface the optimizer's estimates and margin
// (the reason a strategy was picked).
func TestExplainAnalyzeErrColumn(t *testing.T) {
	ts := newTestServer(t, Config{})
	registerChain(t, ts)

	const q = "Q(x, z) :- R(x, y), S(y, z)"
	var analyzed struct {
		Plan string `json:"plan"`
	}
	if code := post(t, ts, "/explain", map[string]any{"query": q, "analyze": true}, &analyzed); code != http.StatusOK {
		t.Fatalf("explain analyze: status %d", code)
	}
	if !regexp.MustCompile(`err=cost×\d+(\.\d+)?`).MatchString(analyzed.Plan) {
		t.Fatalf("EXPLAIN ANALYZE missing err= column:\n%s", analyzed.Plan)
	}
	if !strings.Contains(analyzed.Plan, "margin=") {
		t.Fatalf("EXPLAIN ANALYZE missing decision margin:\n%s", analyzed.Plan)
	}

	var plain struct {
		Plan string `json:"plan"`
	}
	if code := post(t, ts, "/explain", map[string]any{"query": q}, &plain); code != http.StatusOK {
		t.Fatalf("explain: status %d", code)
	}
	if strings.Contains(plain.Plan, "err=") {
		t.Fatalf("plain EXPLAIN leaks err= column:\n%s", plain.Plan)
	}
	// The predicted-only bugfix: estimates and margin show without analyze.
	for _, want := range []string{"est|OUT|=", "|OUT⋈|=", "margin="} {
		if !strings.Contains(plain.Plan, want) {
			t.Fatalf("predicted plan missing %q:\n%s", want, plain.Plan)
		}
	}
}
