// Package core provides the public engine of the library: a façade that
// ties together the optimizer, the join-project algorithms and the
// application-level joins (set similarity, set containment, boolean set
// intersection) behind one configuration surface.
//
// The engine mirrors the paper's system design: every query first runs
// through the Section-5 cost-based optimizer, which either falls back to a
// plain worst-case optimal join (sparse inputs, |OUT⋈| ≤ 20N) or picks the
// degree thresholds for the matrix-multiplication algorithm of Section 3.
// Callers can override the choice per engine via options.
package core

import (
	"context"
	"fmt"
	"sync"
	"time"

	"repro/internal/bsi"
	"repro/internal/catalog"
	"repro/internal/govern"
	"repro/internal/joinproject"
	"repro/internal/obs"
	"repro/internal/optimizer"
	"repro/internal/query"
	"repro/internal/relation"
	"repro/internal/scj"
	"repro/internal/ssj"
	"repro/internal/stats"
	"repro/internal/view"
	"repro/internal/wal"
)

// Strategy selects how the engine plans join-project queries.
type Strategy int

const (
	// Auto lets the cost-based optimizer choose (the default).
	Auto Strategy = iota
	// ForceMM always runs Algorithm 1 with matrix multiplication.
	ForceMM
	// ForceWCOJ always runs the plain worst-case optimal join + dedup.
	ForceWCOJ
	// ForceNonMM always runs the combinatorial Lemma-2 algorithm.
	ForceNonMM
)

// String names the strategy: the label the planning seam
// (optimizer.PlanTwoPath / PlanStar) and query.ExecOptions take as a pin,
// "auto" meaning none.
func (s Strategy) String() string {
	switch s {
	case Auto:
		return "auto"
	case ForceMM:
		return "mm"
	case ForceWCOJ:
		return "wcoj"
	case ForceNonMM:
		return "nonmm"
	default:
		return fmt.Sprintf("strategy(%d)", int(s))
	}
}

// Config collects the engine knobs. The zero value is a sensible default:
// automatic planning on all cores.
type Config struct {
	// Strategy pins the plan of every query and library call (Auto: the
	// cost-based optimizer chooses per instance).
	Strategy Strategy
	// Workers bounds the parallelism of every kernel the engine runs (0:
	// all cores).
	Workers int
	// MaxQueryBytes and MaxQueryRows cap what one query may materialize
	// (intermediate folds included); 0 means unlimited. An exceeded budget
	// aborts the query with govern.ErrBudgetExceeded instead of exhausting
	// memory. View refreshes evaluate through the same path and inherit the
	// caps.
	MaxQueryBytes int64
	MaxQueryRows  int64
	// Introspect sizes the workload-introspection layer (statement stats,
	// activity view, flight recorder); the zero value takes defaults.
	Introspect IntrospectionConfig
	// OptimizerConstants, when non-nil, pins the optimizer's (Ts, Tm, TI)
	// machine constants, skipping the startup probe.
	OptimizerConstants *optimizer.Constants
	// Recalibrate, when non-nil, enables online constant recalibration with
	// the given tuning (default off).
	Recalibrate *optimizer.RecalConfig
}

// Option mutates the engine configuration.
type Option func(*Config)

// WithWorkers bounds the engine's parallelism.
func WithWorkers(n int) Option { return func(c *Config) { c.Workers = n } }

// WithStrategy pins the planning strategy.
func WithStrategy(s Strategy) Option { return func(c *Config) { c.Strategy = s } }

// WithQueryBudget caps the bytes and rows one query may materialize (0:
// unlimited for that dimension).
func WithQueryBudget(maxBytes, maxRows int64) Option {
	return func(c *Config) { c.MaxQueryBytes, c.MaxQueryRows = maxBytes, maxRows }
}

// WithOptimizerConstants pins the optimizer's (Ts, Tm, TI) machine
// constants, skipping the startup micro-probe: reproducible plan choices
// across runners, and the manual escape hatch when drift detection fires.
func WithOptimizerConstants(c optimizer.Constants) Option {
	return func(cfg *Config) { cfg.OptimizerConstants = &c }
}

// WithRecalibration enables online constant recalibration (default off):
// the optimizer adopts EWMA-smoothed observed constants with a bounded step
// per adoption, never mid-query.
func WithRecalibration(rc optimizer.RecalConfig) Option {
	return func(cfg *Config) {
		rc.Enabled = true
		cfg.Recalibrate = &rc
	}
}

// Engine evaluates join-project queries and their applications.
type Engine struct {
	cfg   Config
	opt   *optimizer.Optimizer
	cat   *catalog.Catalog
	views *view.Registry

	pmu     sync.Mutex
	persist *persistence // durability layer; nil until Open
	replica *Replica     // follower loop; nil unless StartReplica

	// Workload introspection; always non-nil (see IntrospectionConfig).
	stmts    *stats.Statements
	activity *stats.Activity
	flight   *stats.Flight
}

// NewEngine builds an engine; calibration of the optimizer's machine
// constants happens once per process (skipped when Config pins them).
func NewEngine(opts ...Option) *Engine {
	var cfg Config
	for _, o := range opts {
		o(&cfg)
	}
	opt := optimizer.New()
	if cfg.OptimizerConstants != nil {
		opt = optimizer.NewWithConstants(*cfg.OptimizerConstants)
	}
	if cfg.Recalibrate != nil {
		opt.EnableRecalibration(*cfg.Recalibrate)
	}
	e := &Engine{
		cfg: cfg, opt: opt, cat: catalog.New(),
		stmts:    stats.NewStatements(cfg.Introspect.MaxStatements),
		activity: stats.NewActivity(),
		flight:   stats.NewFlight(cfg.Introspect.FlightSize, cfg.Introspect.FlightSample, cfg.Introspect.SlowThreshold),
	}
	e.views = view.NewRegistry(view.Config{
		Catalog:   e.cat,
		Optimizer: e.opt,
		Workers:   cfg.Workers,
		Evaluate: func(ctx context.Context, src string) (*query.Result, error) {
			return e.QueryContext(ctx, src)
		},
	})
	return e
}

// Plan describes how a query was (or would be) evaluated.
type Plan struct {
	Strategy       string
	Delta1, Delta2 int
	EstOut         int64
	OutJoin        int64
}

// String renders the plan as a one-line EXPLAIN.
func (p Plan) String() string {
	switch p.Strategy {
	case "mm":
		return fmt.Sprintf("plan=mm Δ1=%d Δ2=%d est|OUT|=%d |OUT⋈|=%d",
			p.Delta1, p.Delta2, p.EstOut, p.OutJoin)
	case "wcoj":
		return fmt.Sprintf("plan=wcoj |OUT⋈|=%d (≤ %d·N fallback)", p.OutJoin, optimizer.WCOJFallbackFactor)
	default:
		return fmt.Sprintf("plan=%s Δ1=%d Δ2=%d", p.Strategy, p.Delta1, p.Delta2)
	}
}

// planOf reports a decision record as the public Plan.
func planOf(dec optimizer.Decision) Plan {
	return Plan{Strategy: dec.Strategy, Delta1: dec.Delta1, Delta2: dec.Delta2,
		EstOut: dec.EstOut, OutJoin: dec.OutJoin}
}

// decide plans one 2-path instance under the engine configuration and
// returns the record with the kernel options that run it.
func (e *Engine) decide(r, s *relation.Relation) (optimizer.Decision, joinproject.Options) {
	base := joinproject.Options{Workers: e.cfg.Workers}
	dec := e.opt.PlanTwoPath(r, s, base, e.cfg.Strategy.String())
	return dec, dec.Options(base, r, s)
}

// JoinProject evaluates π_{x,z}(R(x,y) ⋈ S(z,y)) and returns the distinct
// pairs along with the chosen plan.
func (e *Engine) JoinProject(r, s *relation.Relation) ([][2]int32, Plan) {
	dec, opt := e.decide(r, s)
	return joinproject.TwoPathGroups(r, s, opt, dec.Strategy != optimizer.StrategyNonMM).Pairs(), planOf(dec)
}

// JoinProjectCounts evaluates the counting variant: every output pair with
// its exact witness count.
func (e *Engine) JoinProjectCounts(r, s *relation.Relation) ([]joinproject.PairCount, Plan) {
	dec, opt := e.decide(r, s)
	return joinproject.TwoPathCounts(r, s, opt, dec.Strategy != optimizer.StrategyNonMM), planOf(dec)
}

// SimilarSets returns all set pairs with overlap at least c, using the
// engine's planning strategy (MMJoin under Auto/ForceMM, SizeAware++ when
// the caller forces the combinatorial path).
func (e *Engine) SimilarSets(r *relation.Relation, c int) []ssj.Pair {
	opt := ssj.Options{Workers: e.cfg.Workers}
	if e.cfg.Strategy == ForceWCOJ || e.cfg.Strategy == ForceNonMM {
		return ssj.SizeAware(r, c, opt)
	}
	return ssj.MMJoin(r, c, opt)
}

// SimilarSetsOrdered returns similar pairs in decreasing overlap order.
func (e *Engine) SimilarSetsOrdered(r *relation.Relation, c int) []ssj.ScoredPair {
	return ssj.MMJoinOrdered(r, c, ssj.Options{Workers: e.cfg.Workers})
}

// ContainedSets returns every containment pair (sub ⊆ sup).
func (e *Engine) ContainedSets(r *relation.Relation) []scj.Pair {
	opt := scj.Options{Workers: e.cfg.Workers}
	if e.cfg.Strategy == ForceWCOJ || e.cfg.Strategy == ForceNonMM {
		return scj.PRETTI(r, opt)
	}
	return scj.MMJoin(r, opt)
}

// IntersectBatch answers a batch of boolean set-intersection queries.
func (e *Engine) IntersectBatch(r, s *relation.Relation, queries []bsi.Query) []bool {
	return bsi.AnswerBatch(r, s, queries, bsi.Options{
		UseMM:   e.cfg.Strategy != ForceWCOJ && e.cfg.Strategy != ForceNonMM,
		Workers: e.cfg.Workers,
	})
}

// Catalog exposes the engine's relation catalog: named registration,
// concurrent loads and the LRU plan cache behind Query.
func (e *Engine) Catalog() *catalog.Catalog { return e.cat }

// Register indexes tuples as a relation and binds it in the catalog under
// name, making it addressable from query text.
func (e *Engine) Register(name string, pairs []relation.Pair) (*relation.Relation, error) {
	return e.cat.RegisterPairs(name, pairs)
}

// RegisterRelation binds an existing relation in the catalog under its name.
func (e *Engine) RegisterRelation(r *relation.Relation) error {
	return e.cat.Register(r.Name(), r)
}

// Mutate applies one coalesced insert/delete batch to a registered relation:
// the catalog swaps in the new immutable relation, plans over it are
// implicitly invalidated (plans over untouched relations stay cached), and
// every registered view reading it is patched by delta propagation before
// Mutate returns.
func (e *Engine) Mutate(name string, insert, del []relation.Pair) (catalog.Mutation, error) {
	return e.cat.Mutate(name, insert, del)
}

// RegisterView registers src as a named materialized view: it is evaluated
// once now, then kept fresh under Mutate — incrementally for acyclic
// single-component bodies, by flagged full refresh otherwise. With a data
// dir open, the registration is logged to the WAL; a log failure unwinds
// the registration so durability and memory never disagree.
func (e *Engine) RegisterView(ctx context.Context, name, src string) (*view.View, error) {
	p := e.persistRef()
	if p != nil {
		p.opMu.Lock()
		defer p.opMu.Unlock()
	}
	v, err := e.views.Register(ctx, name, src)
	if err != nil {
		return nil, err
	}
	if p != nil {
		if err := p.logViewOp(wal.KindRegisterView, name, v.Text()); err != nil {
			e.views.Drop(name)
			return nil, fmt.Errorf("core: logging view %q: %w", name, err)
		}
	}
	return v, nil
}

// View returns the registered view bound to name.
func (e *Engine) View(name string) (*view.View, bool) { return e.views.Get(name) }

// Views summarizes every registered view, sorted by name.
func (e *Engine) Views() []view.Info { return e.views.List() }

// DropView removes the view bound to name, reporting whether it existed.
// With a data dir open, the drop is logged to the WAL BEFORE the registry
// applies it — a log failure leaves the view registered (present true,
// error set), so a view never silently resurrects on restart because its
// drop record was lost, and an operational log error is never conflated
// with "no such view".
func (e *Engine) DropView(name string) (present bool, err error) {
	p := e.persistRef()
	if p != nil {
		p.opMu.Lock()
		defer p.opMu.Unlock()
		if _, ok := e.views.Get(name); !ok {
			return false, nil
		}
		if err := p.logViewOp(wal.KindDropView, name, ""); err != nil {
			return true, fmt.Errorf("core: logging drop of view %q: %w", name, err)
		}
	}
	return e.views.Drop(name), nil
}

// execOptions maps the engine configuration onto query execution options;
// WITH-clause hints in the query itself take precedence inside the executor.
func (e *Engine) execOptions() query.ExecOptions {
	return query.ExecOptions{
		Optimizer: e.opt,
		Workers:   e.cfg.Workers,
		Strategy:  e.cfg.Strategy.String(),
	}
}

// Query parses, plans and evaluates one text query against the catalog.
// Any join-project query over registered relations is supported — acyclic
// queries run the GYO fold pipeline, cyclic ones (triangles, cycles,
// cliques) are admitted via hypertree decomposition; compiled plans are
// cached per (query, catalog epoch). Chains, snowflakes and reachability are
// plain texts: "Q(a, d) :- R(a, b), S(b, c), T(c, d)",
// "Q(l1, l2) :- R(c, l1), S(c, u), T(u, l2)" and
// "Q() :- R(1, b), S(b, c), T(c, 4)".
func (e *Engine) Query(src string) (*query.Result, error) {
	return e.QueryContext(context.Background(), src)
}

// QueryContext is Query with cancellation: the context is checked between
// plan operators and during the compile-time bag materialization of cyclic
// queries. When the engine has a query budget configured and the context
// carries none yet, a fresh per-query budget is attached — so every
// top-level query (and every view refresh, which evaluates through here)
// gets its own cap, while nested evaluation shares the caller's.
func (e *Engine) QueryContext(ctx context.Context, src string) (*query.Result, error) {
	return e.query(ctx, src, false)
}

// QueryRows is QueryContext for a caller that reads the answer once, in
// order, through Result.EachRow after the call returns: Result.Tuples is
// left nil wherever the executor can project the rows from the answer's
// last form as they are read (query.ExecOptions.DeferTuples). The unpaged
// /query route serves its rows this way.
func (e *Engine) QueryRows(ctx context.Context, src string) (*query.Result, error) {
	return e.query(ctx, src, true)
}

func (e *Engine) query(ctx context.Context, src string, deferTuples bool) (*query.Result, error) {
	if (e.cfg.MaxQueryBytes > 0 || e.cfg.MaxQueryRows > 0) && govern.FromContext(ctx) == nil {
		ctx = govern.WithBudget(ctx, govern.New(e.cfg.MaxQueryBytes, e.cfg.MaxQueryRows))
	}
	start := time.Now()
	p, hit, err := e.cat.PrepareContext(ctx, src)
	if err != nil {
		queryErrors.Inc()
		// Prepare failures re-derive the fingerprint from the raw text (an
		// extra parse only on this cold error path); unparseable statements
		// land in the <invalid> bucket.
		e.recordQuery(ctx, query.FingerprintText(src), src, start,
			classifyOutcome(err, false), 0, 0, false, nil, err)
		return nil, err
	}
	prepared := time.Now()

	// The per-query cancel lets /stats/activity kill this evaluation from
	// outside; the executor's Stop hooks poll the derived context inside the
	// kernels.
	qctx, cancel := context.WithCancel(ctx)
	defer cancel()
	act := e.activity.Begin(obs.RequestIDFrom(ctx), p.Fingerprint, p.Text, cancel)
	// Deferred so a panicking evaluation (confined to its request by the
	// server's guard) still leaves the activity view.
	defer e.activity.Finish(act)
	opts := e.execOptions()
	opts.Observer, opts.DeferTuples = act, deferTuples
	res, err := p.Execute(qctx, opts)
	if err != nil {
		queryErrors.Inc()
		e.recordQuery(ctx, p.Fingerprint, p.Text, start,
			classifyOutcome(err, act.Killed()), act.Rows(), act.Bytes(), hit, nil, err)
		return nil, err
	}
	res.Plan.CacheHit = hit
	res.Plan.PrepareNs = prepared.Sub(start).Nanoseconds()
	queryOK.Inc()
	queryPrepareSeconds.Observe(float64(res.Plan.PrepareNs) / 1e9)
	querySeconds.ObserveSince(start)
	queryRowsTotal.Add(uint64(res.Len()))
	queryBudgetBytes.Add(uint64(res.Plan.BudgetBytes))
	e.recordQuery(ctx, p.Fingerprint, p.Text, start, stats.OutcomeOK,
		int64(res.Len()), res.Plan.BudgetBytes, hit, res.Plan, nil)
	// Between queries is the only place constants may move: every decision
	// in the evaluation above read one consistent snapshot.
	e.opt.MaybeRecalibrate()
	return res, nil
}

// QuerySorted evaluates src with the result in canonical sorted order,
// serving repeats from the catalog's sorted-result cache. The cache key is
// (canonical query text, version signature of the referenced relations) —
// the same key family as the plan cache — so a limit/cursor page sequence
// over an unchanged catalog re-serves one sorted slice instead of
// re-evaluating and re-sorting per page, and any effective mutation of a
// referenced relation changes the signature, invalidating exactly the
// results it could have changed.
func (e *Engine) QuerySorted(ctx context.Context, src string) (catalog.SortedResult, error) {
	q, err := query.Parse(src)
	if err != nil {
		return catalog.SortedResult{}, err
	}
	text, sig := q.String(), e.cat.Signature(q)
	if r, ok := e.cat.CachedSortedResult(text, sig); ok {
		return r, nil
	}
	res, err := e.QueryContext(ctx, src)
	if err != nil {
		return catalog.SortedResult{}, err
	}
	tuples := res.Tuples
	if tuples == nil {
		tuples = [][]int64{}
	}
	query.SortTuples(tuples)
	r := catalog.SortedResult{
		Columns: res.Columns, Tuples: tuples,
		Plan: res.Plan.String(), PlanCached: res.Plan.CacheHit,
	}
	e.cat.StoreSortedResult(text, sig, r)
	return r, nil
}

// ExplainQuery compiles a text query and returns its predicted plan without
// executing it. Per-node MM/WCOJ choices whose inputs exist at compile time
// are concrete; choices depending on intermediate results are deferred.
func (e *Engine) ExplainQuery(src string) (*query.Plan, error) {
	return e.ExplainQueryContext(context.Background(), src)
}

// ExplainQueryContext is ExplainQuery with cancellation: compilation (which
// includes semijoin reduction and, for cyclic queries, bag materialization)
// honors the context deadline.
func (e *Engine) ExplainQueryContext(ctx context.Context, src string) (*query.Plan, error) {
	start := time.Now()
	p, hit, err := e.cat.PrepareContext(ctx, src)
	if err != nil {
		return nil, err
	}
	prepNs := time.Since(start).Nanoseconds()
	plan := p.Explain(e.execOptions())
	plan.CacheHit = hit
	plan.PrepareNs = prepNs
	return plan, nil
}

// Optimizer exposes the engine's calibrated optimizer (for inspection and
// the benchmark harness).
func (e *Engine) Optimizer() *optimizer.Optimizer { return e.opt }
