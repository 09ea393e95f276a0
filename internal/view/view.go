// Package view is the incremental view maintenance layer of the engine: a
// registry where clients register join-project queries as named views, the
// engine materializes each view once through the normal query pipeline, and
// catalog mutations (InsertPairs/DeletePairs) keep the materialization fresh
// by propagating per-relation deltas instead of recomputing from scratch.
//
// The maintenance algebra exploits the paper's central observation in the
// other direction: a two-path join-project is a (Boolean) matrix product,
// and matrix products are linear, so
//
//	Δ(R∘S) = ΔR∘S' + R∘ΔS
//
// where primes denote post-mutation relations and deltas carry signs
// (+1 inserts, −1 deletes). Every maintained view stores its result with
// multiplicity counts — the number of join witnesses per output tuple, the
// count-carrying fold of "Output-sensitive Conjunctive Query Evaluation"
// (Deep et al., 2024) — so deletions are maintainable too: an output tuple
// dies exactly when its support count reaches zero.
//
// Views inside the incrementally-maintainable fragment (single-component
// acyclic bodies over pure binary atoms) apply deltas with the generic
// slot-at-a-time rule ΔQ = Σ_j Q(S₁'…S'_{j-1}, ΔS_j, S_{j+1}…S_k); two-path
// views additionally run large deltas through the MM/WCOJ kernels of
// internal/joinproject with a per-delta cost-model strategy choice. Views
// outside the fragment (cyclic bodies, constants, cross products) fall back
// to flagged full refresh with a configurable staleness bound.
package view

import (
	"context"
	"fmt"
	"slices"
	"strings"
	"sync"
	"time"

	"repro/internal/joinproject"
	"repro/internal/optimizer"
	"repro/internal/query"
	"repro/internal/relation"
	"repro/internal/tuples"
)

// Maintenance modes.
const (
	// ModeIncremental marks a view maintained by delta propagation.
	ModeIncremental = "incremental"
	// ModeRefresh marks a view outside the maintainable fragment, kept
	// fresh by full recomputation (lazily on read, eagerly once the
	// staleness bound is hit).
	ModeRefresh = "refresh"
)

// kernelDeltaMin is the delta size at which a two-path maintenance fold
// switches from direct indexed expansion (the WCOJ-style plan, optimal for
// tiny deltas) to building delta matrices for the cost-model-planned
// MM/WCOJ kernels. Below it, the positional-index build of the kernel path
// would dominate the delta work itself.
const kernelDeltaMin = 128

// Freshness is the metadata served alongside a view's materialized result.
type Freshness struct {
	// Mode is ModeIncremental or ModeRefresh.
	Mode string `json:"mode"`
	// Reason explains a refresh fallback (why the view is outside the
	// incrementally-maintainable fragment); empty for incremental views.
	Reason string `json:"reason,omitempty"`
	// Stale reports whether mutations are pending that the materialization
	// does not yet reflect (refresh views only; incremental views are
	// always fresh).
	Stale bool `json:"stale"`
	// PendingBatches counts mutation batches since the last refresh.
	PendingBatches int `json:"pending_batches"`
	// Updates counts maintenance batches applied since registration.
	Updates uint64 `json:"updates"`
	// LastMaintainNs is the duration of the last maintenance (or refresh).
	LastMaintainNs int64 `json:"last_maintain_ns"`
	// Strategies records the per-delta strategy choices of the last
	// maintenance batch (e.g. "Δfold mm |Δ|=512").
	Strategies []string `json:"strategies,omitempty"`
}

// View is one registered, materialized, maintained query. All methods are
// safe for concurrent use; readers are only blocked while the first read
// after a mutation merges the new members (and, for Result, rebuilds its
// cache), never for the maintenance work itself on other views.
type View struct {
	name string
	text string
	mode string

	mu     sync.RWMutex
	plan   *maintPlan // nil for refresh views
	reason string     // refresh fallback reason

	// The counted store: head tuples by ordinal, each one's support count
	// (join witnesses) in counts. A member whose count reaches 0 stays as a
	// dead ordinal until compact drops it; live counts the others.
	store  *tuples.Table // nil for refresh views
	counts []int64
	live   int

	// The live members' ordinals in head-tuple order, as of the last
	// sortLive; born lists the members that turned live since, spare is the
	// merge's other buffer. dirty marks a store changed since sortLive.
	order, born, spare []int32
	dirty              bool

	cur    map[string]*relation.Relation // view's belief of its base relations
	curVer map[string]uint64

	cached [][]int64 // the whole result; nil until a read after a change
	cols   []string

	stale        bool
	pending      int
	refreshAfter int
	refreshErr   error

	updates    uint64
	lastDur    time.Duration
	lastStrats []string

	opt      *optimizer.Optimizer
	workers  int
	evaluate func(context.Context, string) (*query.Result, error)
}

// Name returns the view's registered name.
func (v *View) Name() string { return v.name }

// Text returns the canonical query text of the view definition.
func (v *View) Text() string { return v.text }

// Mode returns ModeIncremental or ModeRefresh.
func (v *View) Mode() string { return v.mode }

// bump adjusts one output tuple's support count, tracking the live members
// as the count crosses zero.
func (v *View) bump(vals []int32, delta int64) {
	m, fresh := v.store.Insert(vals)
	if fresh {
		v.counts = append(v.counts, 0)
	}
	was := v.counts[m]
	v.counts[m] += delta
	switch {
	case was == 0 && v.counts[m] != 0:
		v.live++
		v.born = append(v.born, int32(m))
	case was != 0 && v.counts[m] == 0:
		v.live--
	}
}

// compareMembers orders two members by their head tuples.
func (v *View) compareMembers(a, b int32) int {
	return slices.Compare(v.store.At(int(a)), v.store.At(int(b)))
}

// sortLive brings order up to date with the store: it drops the members
// that died since the last call, sorts only the ones born since, and merges
// those in by galloping binary search — O(live) copying plus
// O(|born| log |born| + |born| log(live/|born|)) tuple comparisons, and no
// comparison sort of the whole store. Callers hold v.mu for writing.
func (v *View) sortLive() {
	if !v.dirty {
		return
	}
	dead := func(m int32) bool { return v.counts[m] == 0 }
	live := slices.DeleteFunc(v.order, dead)
	// A member born, dead and born again since the last call is listed
	// twice; equal tuples are equal ordinals, so the copies meet here, and
	// a member still in order meets its copy in the merge.
	born := slices.DeleteFunc(v.born, dead)
	slices.SortFunc(born, v.compareMembers)
	born = slices.Compact(born)
	out := slices.Grow(v.spare[:0], len(live)+len(born))
	for _, m := range born {
		// Gallop to the first power of two past m's place, then search
		// below it: a merge of many births costs O(1) comparisons each.
		hi := 1
		for hi < len(live) && v.compareMembers(live[hi-1], m) < 0 {
			hi *= 2
		}
		i, found := slices.BinarySearchFunc(live[:min(hi, len(live))], m, v.compareMembers)
		out = append(out, live[:i]...)
		if !found {
			out = append(out, m)
		}
		live = live[i:]
	}
	out = append(out, live...)
	v.order, v.spare, v.born, v.dirty = out, v.order[:0], v.born[:0], false
}

// compact rebuilds the store from its live members once dead ones outnumber
// them, renumbering them in head order, so afterwards the ordinals are
// themselves sorted and order is 0..live−1. Every dead member took a bump
// since the last rebuild, so the rebuild is amortised O(1) per bump and the
// store stays within twice the live size.
func (v *View) compact() {
	if v.store.Len() <= 2*v.live {
		return
	}
	v.sortLive()
	store, counts := tuples.NewTable(len(v.plan.an.Head.Vars)), make([]int64, 0, v.live)
	for i, m := range v.order {
		store.Insert(v.store.At(int(m)))
		counts = append(counts, v.counts[m])
		v.order[i] = int32(i)
	}
	v.store, v.counts = store, counts
}

// emptyRel is the relation an absent (or dropped) base relation reads as.
func emptyRel(name string) *relation.Relation { return relation.FromPairs(name, nil) }

// applyMutation folds one base-relation delta into the counted store. old
// and next are the relation before and after; added/removed is the
// effective tuple delta. Callers hold v.mu.
func (v *View) applyMutation(name string, old, next *relation.Relation, added, removed []relation.Pair) {
	start := time.Now()
	v.lastStrats = v.lastStrats[:0]
	relFor := func(i, j int) *relation.Relation {
		rel := v.plan.rel(i)
		if rel != name {
			return v.cur[rel]
		}
		if i < j {
			return next
		}
		return old
	}
	for j := range v.plan.an.Atoms {
		if v.plan.rel(j) != name {
			continue
		}
		if v.plan.shape == ShapeTwoPath && len(added)+len(removed) >= kernelDeltaMin {
			v.twoPathKernelDelta(j, added, removed, relFor(1-j, j))
		} else {
			if len(added)+len(removed) > 0 {
				v.lastStrats = append(v.lastStrats,
					fmt.Sprintf("Δ%s slot=%d wcoj |Δ|=%d", name, j, len(added)+len(removed)))
				stratBacktrack.Inc()
			}
			v.backtrackDelta(j, added, +1, relFor)
			v.backtrackDelta(j, removed, -1, relFor)
		}
	}
	v.dirty, v.cached = true, nil
	v.compact()
	if len(v.born) > v.live {
		// Nobody has read since enough members were born to outnumber the
		// live ones: merge now, so a view nobody reads keeps born bounded.
		v.sortLive()
	}
	v.cur[name] = next
	v.updates++
	v.lastDur = time.Since(start)
	maintainIncremental.Observe(v.lastDur.Seconds())
}

// backtrackDelta extends every delta tuple of slot j through the remaining
// slots (the slot's precomputed wcoj.Plan) and adjusts head-tuple counts by
// sign. Work is proportional to the delta's actual join fan-out, so only the
// affected branch of the tree is re-folded.
func (v *View) backtrackDelta(j int, pairs []relation.Pair, sign int64, relFor func(i, j int) *relation.Relation) {
	if len(pairs) == 0 {
		return
	}
	an := v.plan.an
	rels := make([]*relation.Relation, len(an.Atoms))
	for i := range rels {
		if i != j {
			rels[i] = relFor(i, j)
		}
	}
	buf := make([]int32, len(an.Vars)+len(an.Head.Vars))
	vals, head := buf[:len(an.Vars)], buf[len(an.Vars):]
	search := v.plan.orders[j].Search(rels, nil, nil, func(vals []int32) bool {
		for i, hv := range an.Head.Vars {
			head[i] = vals[hv]
		}
		v.bump(head, sign)
		return true
	})
	s := an.Atoms[j]
	for _, p := range pairs {
		vals[s.A], vals[s.B] = p.X, p.Y
		_ = search.Run(vals) // no poll, so no error: maintenance always runs to the end
	}
}

// twoPathKernelDelta runs a large two-path delta through the joinproject
// kernels: the delta pairs become a small relation, the Section-5 cost
// model picks MM or WCOJ for (Δ, other), and the counting fold's witness
// counts are folded into the store with the delta's sign. j is the mutated
// slot; other is the partner slot's relation under the sequential delta
// rule (new version for the later slot, old for the earlier).
func (v *View) twoPathKernelDelta(j int, added, removed []relation.Pair, other *relation.Relation) {
	plan, headVars := v.plan, v.plan.an.Head.Vars
	sj, so := plan.an.Atoms[j], plan.an.Atoms[1-j]
	headJ, headO := sj.Other(plan.shared), so.Other(plan.shared)
	posJ, posO := slices.Index(headVars, headJ), slices.Index(headVars, headO)
	otherOriented := orientSlot(other, so, headO)

	fold := func(pairs []relation.Pair, sign int64) {
		if len(pairs) == 0 {
			return
		}
		delta := relation.FromPairs("Δ"+plan.rel(j), orientPairs(pairs, sj, headJ))
		jopt := joinproject.Options{Workers: v.workers}
		dec := v.opt.PlanTwoPath(delta, otherOriented, jopt, "")
		v.lastStrats = append(v.lastStrats,
			fmt.Sprintf("Δ%s slot=%d %s |Δ|=%d", plan.rel(j), j, dec.Strategy, delta.Size()))
		if dec.UseWCOJ() {
			stratKernelWCOJ.Inc()
		} else {
			stratKernelMM.Inc()
		}
		head := make([]int32, len(headVars))
		for _, pc := range joinproject.TwoPathCounts(delta, otherOriented, dec.Options(jopt, delta, otherOriented), true) {
			head[posJ], head[posO] = pc.X, pc.Z
			v.bump(head, sign*int64(pc.Count))
		}
	}
	fold(added, +1)
	fold(removed, -1)
}

// orientSlot returns r with the head variable on the X column and the join
// variable on Y, as the two-path kernel expects.
func orientSlot(r *relation.Relation, s query.AtomInfo, headVar int) *relation.Relation {
	if s.A == headVar {
		return r
	}
	return r.Swap()
}

// orientPairs reorders delta pairs into (head, join) orientation.
func orientPairs(pairs []relation.Pair, s query.AtomInfo, headVar int) []relation.Pair {
	if s.A == headVar {
		return pairs
	}
	out := make([]relation.Pair, len(pairs))
	for i, p := range pairs {
		out[i] = relation.Pair{X: p.Y, Y: p.X}
	}
	return out
}

// rebuildLocked refreshes the sorted result cache from the counted store,
// walking the members in head order. Callers hold v.mu for writing.
func (v *View) rebuildLocked() {
	v.sortLive()
	h := &v.plan.an.Head
	if h.CountIdx < 0 {
		v.cached = v.project(v.order)
		return
	}
	// The query layer's head projector forms the groups. They come out in
	// first-appearance order, and the group key need not be a prefix of the
	// store's sort order.
	rows := make([][]int32, len(v.order))
	for i, m := range v.order {
		rows[i] = v.store.At(int(m))
	}
	v.cached = h.Project(h.Vars, rows)
	query.SortTuples(v.cached)
}

// project forms the head tuples of members under a head without COUNT:
// each member's stored tuple, with repeated head variables copied out, as
// query.HeadLayout.Project forms them, but read straight from the store so
// that no row-sized gather is allocated on the way.
func (v *View) project(members []int32) [][]int64 {
	pos := v.plan.an.Head.Pos
	out := tuples.Block[int64](len(members), len(pos))
	for i, m := range members {
		r := v.store.At(int(m))
		for j, p := range pos {
			out[i][j] = int64(r[p])
		}
	}
	return out
}

// Result returns the view's materialized result: column labels, tuples in
// canonical sorted order, and freshness metadata. Refresh-mode views that
// are stale are recomputed first; incremental views serve directly from the
// maintained store. The returned slices are shared — callers must not
// modify them.
func (v *View) Result(ctx context.Context) ([]string, [][]int64, Freshness, error) {
	if v.mode == ModeRefresh {
		v.mu.Lock()
		defer v.mu.Unlock()
		if v.stale || v.cached == nil {
			if err := v.refreshLocked(ctx); err != nil {
				return nil, nil, v.freshnessLocked(), err
			}
		}
		return v.cols, v.cached, v.freshnessLocked(), nil
	}
	// Clean-cache fast path: concurrent readers share the read lock and are
	// only serialized for the duration of a rebuild after a mutation.
	v.mu.RLock()
	if v.cached != nil {
		cols, tuples, fresh := v.cols, v.cached, v.freshnessLocked()
		v.mu.RUnlock()
		return cols, tuples, fresh, nil
	}
	v.mu.RUnlock()
	v.mu.Lock()
	defer v.mu.Unlock()
	if v.cached == nil {
		v.rebuildLocked()
	}
	return v.cols, v.cached, v.freshnessLocked(), nil
}

// Page returns rows [offset, offset+limit) of Result's tuples (limit ≤ 0:
// through the end), their total count, the column labels and freshness
// metadata. An incremental view without COUNT projects only the rows it
// serves, straight from its head-ordered members; refresh views and COUNT
// heads, whose groups need the whole store, slice Result. The returned
// slices are shared — callers must not modify them.
func (v *View) Page(ctx context.Context, offset, limit int) ([]string, [][]int64, int, Freshness, error) {
	if v.mode == ModeRefresh || v.plan.an.Head.CountIdx >= 0 {
		cols, all, fresh, err := v.Result(ctx)
		start, end := pageBounds(offset, limit, len(all))
		return cols, all[start:end:end], len(all), fresh, err
	}
	// Concurrent readers of a sorted store share the read lock; only the
	// first read after a mutation takes the write lock, to merge the births.
	v.mu.RLock()
	if !v.dirty {
		defer v.mu.RUnlock()
		return v.pageLocked(offset, limit)
	}
	v.mu.RUnlock()
	v.mu.Lock()
	defer v.mu.Unlock()
	v.sortLive()
	return v.pageLocked(offset, limit)
}

// pageLocked serves one page of the sorted members: a slice of the result
// cache when a read has built it since the last change, else the page's
// members projected alone. Callers hold v.mu and have brought order up to
// date.
func (v *View) pageLocked(offset, limit int) ([]string, [][]int64, int, Freshness, error) {
	start, end := pageBounds(offset, limit, len(v.order))
	rows := v.cached
	if rows != nil {
		rows = rows[start:end:end]
	} else {
		rows = v.project(v.order[start:end])
	}
	return v.cols, rows, len(v.order), v.freshnessLocked(), nil
}

// pageBounds clamps the page of limit rows at offset (limit ≤ 0: through
// the end) to a result of total rows.
func pageBounds(offset, limit, total int) (start, end int) {
	start = min(max(offset, 0), total)
	if end = total; limit > 0 && limit < total-start {
		end = start + limit
	}
	return start, end
}

// Freshness returns the view's current freshness metadata.
func (v *View) Freshness() Freshness {
	v.mu.RLock()
	defer v.mu.RUnlock()
	return v.freshnessLocked()
}

func (v *View) freshnessLocked() Freshness {
	return Freshness{
		Mode:           v.mode,
		Reason:         v.reason,
		Stale:          v.stale,
		PendingBatches: v.pending,
		Updates:        v.updates,
		LastMaintainNs: v.lastDur.Nanoseconds(),
		Strategies:     append([]string(nil), v.lastStrats...),
	}
}

// refreshLocked recomputes a refresh-mode view from scratch through the
// engine's normal query pipeline. Callers hold v.mu for writing.
func (v *View) refreshLocked(ctx context.Context) error {
	start := time.Now()
	res, err := v.evaluate(ctx, v.text)
	if err != nil {
		v.refreshErr = err
		return fmt.Errorf("view %q: refresh: %w", v.name, err)
	}
	tuples := res.Tuples
	if tuples == nil {
		tuples = [][]int64{}
	}
	query.SortTuples(tuples)
	v.cols = res.Columns
	v.cached = tuples
	v.stale = false
	v.pending = 0
	v.refreshErr = nil
	v.updates++
	v.lastDur = time.Since(start)
	v.lastStrats = []string{"full refresh"}
	maintainRefresh.Observe(v.lastDur.Seconds())
	stratRefresh.Inc()
	return nil
}

// Rows returns the current number of live result tuples (before any COUNT
// grouping for incremental views; the cached row count for refresh views).
func (v *View) Rows() int {
	v.mu.RLock()
	defer v.mu.RUnlock()
	if v.mode == ModeIncremental {
		return v.live
	}
	return len(v.cached)
}

// MaintenancePlan renders the view's maintenance plan as an explainable
// tree: one delta operator per atom slot for incremental views (deltafold
// for two-path kernels, deltastar for star arms, deltatree for generic tree
// extension), each with its predicted per-delta-tuple cost, or a refresh
// node with the fallback reason and staleness bound.
func (v *View) MaintenancePlan() *query.Plan {
	v.mu.RLock()
	defer v.mu.RUnlock()
	root := &query.Node{Op: "maintain", Rows: -1,
		Detail: fmt.Sprintf("view %s mode=%s", v.name, v.mode)}
	plan := &query.Plan{Text: v.name + " := " + v.text, Root: root, Predicted: true}
	if v.mode == ModeRefresh {
		root.Children = []*query.Node{{
			Op:   "refresh",
			Rows: -1,
			Detail: fmt.Sprintf("%s; recompute lazily on read, eagerly after %d pending batches",
				v.reason, v.refreshAfter),
		}}
		return plan
	}
	root.Detail += fmt.Sprintf(" shape=%s rows=%d", v.plan.shape, v.live)
	for j := range v.plan.an.Atoms {
		root.Children = append(root.Children, v.deltaNode(j))
	}
	return plan
}

// deltaNode renders the maintenance operator for one atom slot.
func (v *View) deltaNode(j int) *query.Node {
	plan, slots, vars := v.plan, v.plan.an.Atoms, v.plan.an.Vars
	s := slots[j]
	switch plan.shape {
	case ShapeTwoPath:
		so := slots[1-j]
		cost := avgDegree(v.cur[plan.rel(1-j)], so, plan.shared)
		return &query.Node{
			Op: "deltafold", Decision: optimizer.Decision{Strategy: "auto"}, Rows: -1,
			Detail: fmt.Sprintf("Δ%s ∘ %s via %s (cost model per delta, kernels ≥%d Δtuples) predicted cost/Δtuple≈%.1f",
				plan.rel(j), plan.rel(1-j), vars[plan.shared], kernelDeltaMin, cost),
		}
	case ShapeStar:
		arms := make([]string, 0, len(slots)-1)
		var cost float64 = 1
		for i, o := range slots {
			if i != j {
				arms = append(arms, plan.rel(i))
				cost *= 1 + avgDegree(v.cur[plan.rel(i)], o, plan.shared)
			}
		}
		return &query.Node{
			Op: "deltastar", Decision: optimizer.Decision{Strategy: optimizer.StrategyWCOJ}, Rows: -1,
			Detail: fmt.Sprintf("Δ%s ⋈ [%s] through center %s (affected arm only) predicted cost/Δtuple≈%.1f",
				plan.rel(j), strings.Join(arms, ", "), vars[plan.shared], cost),
		}
	default:
		return &query.Node{
			Op: "deltatree", Decision: optimizer.Decision{Strategy: optimizer.StrategyWCOJ}, Rows: -1,
			Detail: fmt.Sprintf("Δ%s(%s, %s) extended through %d remaining atoms (backtracking, affected branch only)",
				plan.rel(j), vars[s.A], vars[s.B], len(slots)-1),
		}
	}
}

// avgDegree estimates the per-delta-tuple fan-out of extending through r via
// the shared variable: the average partner-list length on r's join side.
func avgDegree(r *relation.Relation, s query.AtomInfo, shared int) float64 {
	if r == nil || r.Size() == 0 {
		return 0
	}
	ix := r.ByY()
	if s.A == shared {
		ix = r.ByX()
	}
	if ix.NumKeys() == 0 {
		return 0
	}
	return float64(r.Size()) / float64(ix.NumKeys())
}
