package view

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"

	"repro/internal/catalog"
	"repro/internal/optimizer"
	"repro/internal/query"
	"repro/internal/relation"
	"repro/internal/snapshot"
	"repro/internal/tuples"
)

// ErrExists reports a registration or restore under a name already taken;
// match it with errors.Is.
var ErrExists = errors.New("already registered")

// DefaultRefreshAfter is the staleness bound for refresh-mode views: after
// this many pending mutation batches the registry refreshes eagerly instead
// of waiting for the next read.
const DefaultRefreshAfter = 16

// Config configures a Registry.
type Config struct {
	// Catalog is the relation namespace whose mutations maintain the views.
	// The registry subscribes to it on construction.
	Catalog *catalog.Catalog
	// Optimizer supplies the per-delta MM/WCOJ cost decisions for two-path
	// maintenance folds; nil falls back to heuristic-threshold MM.
	Optimizer *optimizer.Optimizer
	// Workers bounds maintenance parallelism (≤ 0: all cores).
	Workers int
	// RefreshAfter is the staleness bound for refresh-mode views
	// (≤ 0: DefaultRefreshAfter).
	RefreshAfter int
	// Evaluate runs one query text through the normal pipeline; it
	// materializes refresh-mode views. Required.
	Evaluate func(context.Context, string) (*query.Result, error)
}

// Info summarizes one registered view for listings.
type Info struct {
	// Name is the view's registered name.
	Name string `json:"name"`
	// Query is the canonical view definition.
	Query string `json:"query"`
	// Rows is the current number of live result tuples.
	Rows int `json:"rows"`
	// Freshness is the maintenance metadata.
	Freshness Freshness `json:"freshness"`
}

// Registry is a concurrent name → view registry subscribed to a catalog:
// every catalog mutation is folded into each registered view that reads the
// mutated relation. Reads of one view proceed concurrently with maintenance
// of others.
type Registry struct {
	cfg Config

	mu    sync.RWMutex
	views map[string]*View
}

// NewRegistry builds a registry over cfg.Catalog and subscribes it to the
// catalog's mutation stream.
func NewRegistry(cfg Config) *Registry {
	if cfg.RefreshAfter <= 0 {
		cfg.RefreshAfter = DefaultRefreshAfter
	}
	r := &Registry{cfg: cfg, views: map[string]*View{}}
	if cfg.Catalog != nil {
		cfg.Catalog.Subscribe(r.Apply)
	}
	return r
}

// Register parses src, decides its maintenance mode, materializes it once,
// and registers it under name. Incremental views are seeded by running the
// full relations through the same delta machinery (for two-path views that
// is one counting kernel fold over the full inputs — the normal pipeline);
// refresh views evaluate once through Config.Evaluate.
func (r *Registry) Register(ctx context.Context, name, src string) (*View, error) {
	return r.install(ctx, name, src, nil)
}

// install is the one registration path. With img nil it materializes the
// view (Register); otherwise it adopts the checkpointed image, and a
// refresh view starts stale (Restore).
//
// Materialization runs outside the registry lock, so concurrent catalog
// mutations are never blocked behind a slow registration: any mutation that
// lands mid-seed is caught up at insertion time by diffing the relation
// versions the seed was taken at against the catalog's current ones.
func (r *Registry) install(ctx context.Context, name, src string, img *snapshot.View) (*View, error) {
	if name == "" {
		return nil, fmt.Errorf("view: empty view name")
	}
	q, err := query.Parse(src)
	if err != nil {
		return nil, fmt.Errorf("view %q: %w", name, err)
	}
	if _, dup := r.Get(name); dup {
		return nil, fmt.Errorf("view %q %w", name, ErrExists)
	}

	v := r.newView(name, q)
	if img != nil && img.Incremental != (v.mode == ModeIncremental) {
		return nil, fmt.Errorf("view %q: restore: image mode (incremental=%v) disagrees with compiled fragment", name, img.Incremental)
	}
	rels, vers, _ := r.cfg.Catalog.Snapshot()
	names := q.Relations()
	for _, n := range names {
		if _, ok := rels[n]; !ok {
			return nil, fmt.Errorf("view %q: unknown relation %q", name, n)
		}
		v.curVer[n] = vers[n]
	}
	if err := func() error {
		v.mu.Lock()
		defer v.mu.Unlock()
		switch {
		case v.mode == ModeRefresh && img == nil:
			return v.refreshLocked(ctx)
		case v.mode == ModeRefresh:
			v.stale = true // recompute lazily on first read
		case img == nil:
			// Seed from empty relations by replaying each base relation as
			// one big insert batch, in slot order: already-seeded relations
			// read their full contents, unseeded ones read empty — exactly
			// the sequential delta rule, so the final counts are the full
			// counts.
			for _, n := range names {
				v.cur[n] = emptyRel(n)
			}
			for _, n := range names {
				v.applyMutation(n, v.cur[n], rels[n], rels[n].Pairs(), nil)
			}
			// Every member was just born: sort them once here, so the
			// first batch after registration merges only its own births.
			v.sortLive()
		default:
			for _, n := range names {
				v.cur[n] = rels[n]
			}
			return v.adopt(img)
		}
		return nil
	}(); err != nil {
		return nil, err
	}

	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.views[name]; dup {
		return nil, fmt.Errorf("view %q %w", name, ErrExists)
	}
	// Catch up on mutations that landed while seeding ran unlocked: any
	// referenced relation whose version moved past the seed snapshot is
	// patched via the Reset path (diff old belief vs current contents).
	// Mutations notified after this insertion are deduplicated by the
	// per-relation version guard in applyCatalogMutation.
	curRels, curVers, _ := r.cfg.Catalog.Snapshot()
	for _, n := range names {
		if curVers[n] > v.curVer[n] {
			v.applyCatalogMutation(catalog.Mutation{
				Name: n, Reset: true, New: curRels[n], Version: curVers[n],
			})
		}
	}
	r.views[name] = v
	return v, nil
}

// newView builds the unregistered, unmaterialized view for q under the
// registry's configuration, with its maintenance mode and plan (or, outside
// the incremental fragment, the reason).
func (r *Registry) newView(name string, q *query.Query) *View {
	v := &View{
		name:         name,
		text:         q.String(),
		mode:         ModeRefresh,
		cur:          map[string]*relation.Relation{},
		curVer:       map[string]uint64{},
		refreshAfter: r.cfg.RefreshAfter,
		opt:          r.cfg.Optimizer,
		workers:      r.cfg.Workers,
		evaluate:     r.cfg.Evaluate,
	}
	v.cols = make([]string, len(q.Head))
	for i, h := range q.Head {
		v.cols[i] = h.String()
	}
	if v.plan, v.reason = compileMaint(q); v.plan != nil {
		v.mode, v.store = ModeIncremental, tuples.NewTable(len(v.plan.an.Head.Vars))
	}
	return v
}

// Get returns the view registered under name.
func (r *Registry) Get(name string) (*View, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	v, ok := r.views[name]
	return v, ok
}

// Drop removes the view registered under name, reporting whether it existed.
func (r *Registry) Drop(name string) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	_, ok := r.views[name]
	delete(r.views, name)
	return ok
}

// Len returns the number of registered views.
func (r *Registry) Len() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.views)
}

// List summarizes every registered view, sorted by name.
func (r *Registry) List() []Info {
	r.mu.RLock()
	views := make([]*View, 0, len(r.views))
	for _, v := range r.views {
		views = append(views, v)
	}
	r.mu.RUnlock()
	out := make([]Info, 0, len(views))
	for _, v := range views {
		out = append(out, Info{Name: v.name, Query: v.text, Rows: v.Rows(), Freshness: v.Freshness()})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Apply folds one catalog mutation into every registered view that reads
// the mutated relation. The catalog calls it synchronously in mutation
// order; epoch bumps therefore patch registered views instead of dropping
// them. Mutations already reflected (per-relation version ≤ the view's
// recorded version) are skipped, which makes registration race-free against
// concurrent mutations.
func (r *Registry) Apply(m catalog.Mutation) {
	r.mu.RLock()
	views := make([]*View, 0, len(r.views))
	for _, v := range r.views {
		views = append(views, v)
	}
	r.mu.RUnlock()
	for _, v := range views {
		v.applyCatalogMutation(m)
	}
}

// applyCatalogMutation routes one catalog mutation into this view.
func (v *View) applyCatalogMutation(m catalog.Mutation) {
	v.mu.Lock()
	ver, refs := v.curVer[m.Name]
	if !refs || m.Version <= ver {
		v.mu.Unlock()
		return
	}
	v.curVer[m.Name] = m.Version
	if v.mode == ModeRefresh {
		v.stale = true
		v.pending++
		needEager := v.pending >= v.refreshAfter
		v.mu.Unlock()
		if needEager {
			v.mu.Lock()
			if v.stale {
				_ = v.refreshLocked(context.Background())
			}
			v.mu.Unlock()
		}
		return
	}
	defer v.mu.Unlock()
	old := v.cur[m.Name]
	next := m.New
	if next == nil {
		next = emptyRel(m.Name)
	}
	added, removed := m.Added, m.Removed
	if m.Reset {
		// Wholesale replacement (Register/Drop): diff the old belief
		// against the new contents so the view is still patched, not
		// rebuilt. A drop reads as truncation.
		added, removed = diffRelations(old, next)
	}
	v.applyMutation(m.Name, old, next, added, removed)
}

// diffRelations returns the tuples of next missing from old (added) and the
// tuples of old missing from next (removed).
func diffRelations(old, next *relation.Relation) (added, removed []relation.Pair) {
	for _, p := range next.Pairs() {
		if !old.Contains(p.X, p.Y) {
			added = append(added, p)
		}
	}
	for _, p := range old.Pairs() {
		if !next.Contains(p.X, p.Y) {
			removed = append(removed, p)
		}
	}
	return added, removed
}
