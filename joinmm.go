// Package joinmm is a Go implementation of "Fast Join Project Query
// Evaluation using Matrix Multiplication" (Deep, Hu, Koutris — SIGMOD 2020):
// an output-sensitive in-memory engine for star join queries with
// projections, combining worst-case optimal joins with (bit-packed) matrix
// multiplication, together with the paper's applications — set similarity
// joins, set containment joins and batched boolean set intersection.
//
// Quick start:
//
//	r := joinmm.NewRelation("friends", pairs) // R(x, y) tuples
//	eng := joinmm.New()                       // cost-based planning
//	out, plan := eng.JoinProject(r, r)        // π_{x,z}(R(x,y) ⋈ R(z,y))
//
// The engine's optimizer decides per instance whether to run the plain
// worst-case optimal join (sparse inputs) or the degree-partitioned matrix
// multiplication algorithm (dense inputs), exactly as Section 5 of the
// paper prescribes; WithStrategy pins either choice.
//
// Beyond the hardcoded shapes, the engine evaluates arbitrary join-project
// queries — acyclic or cyclic — written in a compact Datalog-style text
// language, against relations registered in its catalog:
//
//	eng.Register("R", pairs)
//	res, _ := eng.Query("Q(x, z) :- R(x, y), R(y, z) WITH strategy=auto")
//	tri, _ := eng.Query("Q(x, z) :- R(x, y), R(y, z), R(z, x)")
//	plan, _ := eng.ExplainQuery("Q(x, COUNT(z)) :- R(x, y), R(y, z)")
//
// Acyclic queries are GYO-decomposed into a tree of the paper's two-path and
// star primitives, semijoin-reduced Yannakakis-style, with the calibrated
// cost model choosing MM vs WCOJ per plan node; cyclic queries (triangles,
// cycles, cliques) are admitted via generalized hypertree decomposition and
// run through the same fold machinery over materialized bag relations.
// Compiled plans are cached per (query, versions of the relations it reads).
//
// The catalog is mutable and views are live: Engine.Mutate applies coalesced
// insert/delete batches, and views registered with Engine.RegisterView are
// kept fresh by delta propagation through the same kernels (full refresh
// with a staleness bound outside the incrementally-maintainable fragment):
//
//	v, _ := eng.RegisterView(ctx, "paths", "V(x, z) :- R(x, y), R(y, z)")
//	eng.Mutate("R", inserts, deletes) // v is patched, not recomputed
//	cols, tuples, freshness, _ := v.Result(ctx)
//
// With a data dir, the whole serving state is durable: every mutation is
// write-ahead logged before it is acked, checkpoints snapshot the relations
// and the views' count stores atomically, and on restart the snapshot loads
// and the WAL tail replays through the normal incremental maintenance path:
//
//	eng := joinmm.New()
//	_ = eng.Open("/var/lib/joinmm", joinmm.PersistOptions{})
//	defer eng.Close() // fsync + close the WAL
//	eng.Checkpoint()  // or let CheckpointEvery trigger it
//
// See internal/query/README.md for the grammar, internal/view/README.md for
// the maintenance algebra, docs/ARCHITECTURE.md for worked walk-throughs of
// both the query and the update path, and cmd/joinmmd for the HTTP/JSON
// server exposing the same surface.
package joinmm

import (
	"repro/internal/bsi"
	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/query"
	"repro/internal/relation"
	"repro/internal/scj"
	"repro/internal/ssj"
	"repro/internal/view"
	"repro/internal/wal"
)

// Pair is a single tuple (X, Y) of a binary relation.
type Pair = relation.Pair

// Relation is an immutable, fully indexed binary relation R(x, y).
type Relation = relation.Relation

// Engine evaluates join-project queries and their applications.
type Engine = core.Engine

// Plan describes how the engine evaluated (or would evaluate) a query.
type Plan = core.Plan

// Strategy selects the planning mode; see Auto, ForceMM, ForceWCOJ,
// ForceNonMM.
type Strategy = core.Strategy

// Planning strategies.
const (
	Auto       = core.Auto
	ForceMM    = core.ForceMM
	ForceWCOJ  = core.ForceWCOJ
	ForceNonMM = core.ForceNonMM
)

// Engine options.
var (
	WithWorkers  = core.WithWorkers
	WithStrategy = core.WithStrategy
)

// SimilarPair is an unordered set pair with overlap ≥ c (set similarity).
type SimilarPair = ssj.Pair

// ScoredPair is a similar pair with its exact overlap, for ordered results.
type ScoredPair = ssj.ScoredPair

// ContainmentPair is one containment Sub ⊆ Sup (set containment).
type ContainmentPair = scj.Pair

// IntersectionQuery asks whether sets A (in R) and B (in S) intersect.
type IntersectionQuery = bsi.Query

// ParsedQuery is the AST of one text query (see ParseQuery).
type ParsedQuery = query.Query

// QueryResult is an evaluated text query: column labels, distinct tuples and
// the executed plan with its per-node strategy choices.
type QueryResult = query.Result

// QueryPlan is an explainable plan tree for a text query.
type QueryPlan = query.Plan

// Catalog is the engine's named-relation registry with its LRU plan cache
// and the tuple-level mutation API feeding view maintenance.
type Catalog = catalog.Catalog

// RelationMutation is one coalesced catalog change: the effective tuple
// delta, the old and new relation, and the bumped per-relation version.
type RelationMutation = catalog.Mutation

// MaterializedView is one registered live view: materialized once, kept
// fresh under Engine.Mutate by delta propagation (or flagged refresh).
type MaterializedView = view.View

// ViewInfo summarizes one registered view (name, query, rows, freshness).
type ViewInfo = view.Info

// ViewFreshness is the maintenance metadata served with view results:
// mode, staleness, pending batches, last maintenance cost and strategies.
type ViewFreshness = view.Freshness

// PersistOptions configures Engine.Open: WAL fsync policy, segment size and
// the automatic checkpoint threshold.
type PersistOptions = core.PersistOptions

// FsyncPolicy selects when WAL appends reach the disk; see FsyncAlways,
// FsyncInterval, FsyncNever.
type FsyncPolicy = wal.Policy

// WAL fsync policies, in decreasing durability order.
const (
	// FsyncAlways syncs after every append (the default; no acked mutation
	// is ever lost).
	FsyncAlways = wal.FsyncAlways
	// FsyncInterval syncs at most once per interval.
	FsyncInterval = wal.FsyncInterval
	// FsyncNever leaves syncing to the OS page cache.
	FsyncNever = wal.FsyncNever
)

// CheckpointInfo summarizes one completed durability checkpoint.
type CheckpointInfo = core.CheckpointInfo

// RecoveryStats summarizes what Engine.Open recovered from a data dir.
type RecoveryStats = core.RecoveryStats

// PersistenceStats is the durability section of the engine's health report.
type PersistenceStats = core.PersistenceStats

// ParseQuery parses one rule of the text query language, e.g.
// "Q(x, z) :- R(x, y), S(y, z), T(z, w) WITH strategy=auto".
func ParseQuery(src string) (*ParsedQuery, error) { return query.Parse(src) }

// New builds an engine. With no options it plans automatically on all
// cores.
func New(opts ...core.Option) *Engine { return core.NewEngine(opts...) }

// NewRelation builds an indexed relation from tuples, removing duplicates.
func NewRelation(name string, pairs []Pair) *Relation {
	return relation.FromPairs(name, pairs)
}

// Reduce removes tuples that cannot contribute to the join of the given
// relations (the linear preprocessing step the paper's algorithms assume).
func Reduce(rels ...*Relation) []*Relation { return relation.Reduce(rels...) }

// LoadRelation reads a relation from a file written by (*Relation).Save.
func LoadRelation(path string) (*Relation, error) { return relation.Load(path) }

// FullJoinSize returns |OUT⋈|, the size of the star join before projection.
func FullJoinSize(rels ...*Relation) int64 { return relation.FullJoinSize(rels...) }
