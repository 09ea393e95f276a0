// Package catalog is the engine's relation namespace: a thread-safe registry
// of named, immutable relations, with concurrent bulk loading, a tuple-level
// mutation API that publishes coalesced deltas to subscribers (the view
// maintenance layer), and an LRU plan cache keyed on (query text, versions of
// the relations the query reads).
//
// Relations are immutable once registered, so readers never lock them;
// mutations (InsertPairs, DeletePairs, Mutate) build a new immutable relation
// and swap it in under a copy-on-write map, which lets PrepareContext compile
// a query against one consistent snapshot without holding any lock during the
// (potentially expensive) compile. Every mutation bumps the global epoch and
// the per-relation version. Cached plans embed relation pointers, so the
// cache key includes the version of every relation the query references —
// mutating R invalidates plans over R implicitly (their key no longer
// matches) while plans over untouched relations keep hitting.
package catalog

import (
	"bytes"
	"container/list"
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"

	"repro/internal/query"
	"repro/internal/relation"
)

// DefaultPlanCacheSize is the LRU capacity New uses.
const DefaultPlanCacheSize = 128

// ErrUnknownRelation marks a mutation of a relation that is not registered;
// callers distinguish it (errors.Is) from operational failures such as a
// durability-sink veto, which must not read as "not found".
var ErrUnknownRelation = errors.New("unknown relation")

// Info summarizes one registered relation for listings.
type Info struct {
	Name  string         `json:"name"`
	Stats relation.Stats `json:"stats"`
}

// Mutation describes one catalog change to relation Name, as published to
// subscribers. For tuple-level mutations (InsertPairs, DeletePairs, Mutate)
// Added and Removed carry the coalesced effective delta: duplicates are
// merged, inserts of already-present tuples and deletes of absent tuples are
// dropped, and a tuple both inserted and deleted in one batch nets out. For
// wholesale changes (Register, Drop) Reset is true and no delta is computed —
// consumers diff Old against New themselves if they need one.
type Mutation struct {
	// Name is the mutated relation.
	Name string
	// Added and Removed are the effective tuple delta (nil when Reset).
	Added, Removed []relation.Pair
	// Reset marks a wholesale replacement (Register) or removal (Drop).
	Reset bool
	// Old and New are the relation before and after; either may be nil when
	// the relation was absent on that side.
	Old, New *relation.Relation
	// Version is Name's new per-relation version.
	Version uint64
	// Epoch is the catalog epoch after the change.
	Epoch uint64
	// Origin, when non-nil on a Reset registration, identifies the file the
	// relation was loaded from — the durability sink may log the reference
	// instead of the full tuple image.
	Origin *FileOrigin
}

// FileOrigin identifies the source file of a LoadFile registration: enough
// for a durability sink to log a ~100-byte reference (and verify it on
// replay) instead of re-serializing the whole relation.
type FileOrigin struct {
	// Path is the absolute path the relation was read from.
	Path string
	// SHA256 is the digest of the file's bytes at load time.
	SHA256 [sha256.Size]byte
	// Tuples is the loaded relation's size, a cheap replay cross-check.
	Tuples uint64
}

// Empty reports whether the mutation changed nothing (fully coalesced away).
func (m Mutation) Empty() bool { return !m.Reset && len(m.Added) == 0 && len(m.Removed) == 0 }

// Persistence is the durability sink of the catalog: when set, every
// effective mutation is offered to the sink BEFORE it is applied and before
// subscribers run, all under the mutation lock — so the write-ahead log, the
// in-memory state and the registered views observe exactly the same mutation
// order. A sink error vetoes the mutation: the catalog stays unchanged and
// the caller gets the error, so nothing is ever acked that the log refused.
// The Mutation handed to the sink predates the apply, so its Version and
// Epoch fields are zero — replay regenerates them.
type Persistence interface {
	// LogMutation durably records one effective mutation (or rejects it).
	LogMutation(m Mutation) error
}

// Catalog is a concurrent name → relation registry with a plan cache.
type Catalog struct {
	mu    sync.RWMutex
	rels  map[string]*relation.Relation // copy-on-write: replaced wholesale on mutation
	vers  map[string]uint64             // per-relation versions (monotonic, survive drops)
	epoch uint64
	subs  []func(Mutation)

	// mutMu serializes whole mutations (delta computation + WAL append +
	// swap + subscriber notification), so the log and subscribers observe
	// mutations in the order they were applied.
	mutMu   sync.Mutex
	persist Persistence // nil: no durability sink attached

	cacheMu sync.Mutex
	cache   *weightedLRU[*query.Prepared]
	hits    uint64
	misses  uint64

	resultMu     sync.Mutex
	results      *weightedLRU[*SortedResult]
	resultHits   uint64
	resultMisses uint64
}

// New returns an empty catalog with the default plan-cache capacity.
func New() *Catalog { return NewWithCacheSize(DefaultPlanCacheSize) }

// NewWithCacheSize returns an empty catalog whose plan cache holds up to n
// compiled queries (n ≤ 0 disables caching).
func NewWithCacheSize(n int) *Catalog {
	return &Catalog{
		rels:    map[string]*relation.Relation{},
		vers:    map[string]uint64{},
		cache:   newPlanLRU(n),
		results: newResultLRU(DefaultResultCacheEntries),
	}
}

// SetPersistence attaches (or, with nil, detaches) the durability sink. It
// synchronizes with in-flight mutations, so recovery can replay the log
// sink-free and attach the sink before serving.
func (c *Catalog) SetPersistence(p Persistence) {
	c.mutMu.Lock()
	defer c.mutMu.Unlock()
	c.persist = p
}

// Freeze runs fn while holding the mutation lock: no mutation (and, because
// view maintenance runs synchronously inside that lock, no view store
// change) can land while fn runs. The checkpointer uses it to capture one
// consistent (relations, view stores, WAL position) triple; fn must not
// mutate the catalog.
func (c *Catalog) Freeze(fn func()) {
	c.mutMu.Lock()
	defer c.mutMu.Unlock()
	fn()
}

// logMutation offers m to the persistence sink. Callers hold mutMu.
func (c *Catalog) logMutation(m Mutation) error {
	if c.persist == nil {
		return nil
	}
	return c.persist.LogMutation(m)
}

// snapshot returns the current relation map and epoch. The map must not be
// mutated — mutators replace it wholesale.
func (c *Catalog) snapshot() (map[string]*relation.Relation, uint64) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.rels, c.epoch
}

// Snapshot returns one consistent view of the catalog: the relation map (not
// to be mutated), the per-relation versions, and the epoch. The view
// registry uses it to seed a new view without racing concurrent mutations.
func (c *Catalog) Snapshot() (rels map[string]*relation.Relation, vers map[string]uint64, epoch uint64) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	vers = make(map[string]uint64, len(c.vers))
	for k, v := range c.vers {
		vers[k] = v
	}
	return c.rels, vers, c.epoch
}

// Subscribe registers fn to be called synchronously after every catalog
// change, in application order. Subscribers must not mutate the catalog from
// within the callback.
func (c *Catalog) Subscribe(fn func(Mutation)) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.subs = append(c.subs, fn)
}

// mutate clones the relation map, applies fn, bumps the epoch and the
// versions of the named relations, and returns the new (version, epoch) of
// the first name.
func (c *Catalog) mutate(fn func(map[string]*relation.Relation), names ...string) (uint64, uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	next := make(map[string]*relation.Relation, len(c.rels)+1)
	for k, v := range c.rels {
		next[k] = v
	}
	fn(next)
	c.rels = next
	c.epoch++
	var ver uint64
	for i, name := range names {
		c.vers[name]++
		if i == 0 {
			ver = c.vers[name]
		}
	}
	return ver, c.epoch
}

// notify delivers m to every subscriber. Callers hold mutMu, so deliveries
// are ordered; c.mu is not held.
func (c *Catalog) notify(m Mutation) {
	c.mu.RLock()
	subs := c.subs
	c.mu.RUnlock()
	for _, fn := range subs {
		fn(m)
	}
}

// Register binds name to r, replacing any existing binding. Subscribers see
// it as a Reset mutation (no tuple delta).
func (c *Catalog) Register(name string, r *relation.Relation) error {
	return c.registerOrigin(name, r, nil)
}

// registerOrigin is Register carrying an optional file origin for the
// durability sink.
func (c *Catalog) registerOrigin(name string, r *relation.Relation, origin *FileOrigin) error {
	if name == "" {
		return fmt.Errorf("catalog: empty relation name")
	}
	if r == nil {
		return fmt.Errorf("catalog: nil relation for %q", name)
	}
	c.mutMu.Lock()
	defer c.mutMu.Unlock()
	old, _ := c.Get(name)
	if err := c.logMutation(Mutation{Name: name, Reset: true, Old: old, New: r, Origin: origin}); err != nil {
		return fmt.Errorf("catalog: register %q: %w", name, err)
	}
	ver, epoch := c.mutate(func(m map[string]*relation.Relation) { m[name] = r }, name)
	c.notify(Mutation{Name: name, Reset: true, Old: old, New: r, Version: ver, Epoch: epoch, Origin: origin})
	return nil
}

// RegisterPairs builds an indexed relation from tuples and registers it.
func (c *Catalog) RegisterPairs(name string, pairs []relation.Pair) (*relation.Relation, error) {
	r := relation.FromPairs(name, pairs)
	if err := c.Register(name, r); err != nil {
		return nil, err
	}
	return r, nil
}

// Drop removes name, reporting whether it was present. Subscribers see a
// Reset mutation with a nil New relation. With a persistence sink attached,
// a sink veto leaves the relation in place and returns the sink's error
// (present is true in that case: the relation still exists).
func (c *Catalog) Drop(name string) (present bool, err error) {
	c.mutMu.Lock()
	defer c.mutMu.Unlock()
	old, present := c.Get(name)
	if !present {
		return false, nil
	}
	if err := c.logMutation(Mutation{Name: name, Reset: true, Old: old}); err != nil {
		return true, fmt.Errorf("catalog: drop %q: %w", name, err)
	}
	ver, epoch := c.mutate(func(m map[string]*relation.Relation) { delete(m, name) }, name)
	c.notify(Mutation{Name: name, Reset: true, Old: old, Version: ver, Epoch: epoch})
	return true, nil
}

// Mutate applies one coalesced tuple-level change to relation name: the new
// contents are (old ∪ insert) \ delete — a tuple appearing in both slices is
// net-deleted if it was present and a no-op otherwise. The returned Mutation
// carries the effective delta; a fully coalesced-away batch leaves the
// catalog (and its epoch) untouched. Subscribers are notified synchronously
// in mutation order, which is how registered views stay fresh.
func (c *Catalog) Mutate(name string, insert, del []relation.Pair) (Mutation, error) {
	c.mutMu.Lock()
	defer c.mutMu.Unlock()
	old, ok := c.Get(name)
	if !ok {
		return Mutation{}, fmt.Errorf("catalog: mutate %q: %w", name, ErrUnknownRelation)
	}
	delSet := make(map[relation.Pair]struct{}, len(del))
	var added, removed []relation.Pair
	for _, p := range del {
		if _, dup := delSet[p]; dup {
			continue
		}
		delSet[p] = struct{}{}
		if old.Contains(p.X, p.Y) {
			removed = append(removed, p)
		}
	}
	insSeen := make(map[relation.Pair]struct{}, len(insert))
	for _, p := range insert {
		if _, dup := insSeen[p]; dup {
			continue
		}
		insSeen[p] = struct{}{}
		if _, gone := delSet[p]; gone {
			continue // delete wins within one batch: new = (old ∪ ins) \ del
		}
		if !old.Contains(p.X, p.Y) {
			added = append(added, p)
		}
	}
	if len(added) == 0 && len(removed) == 0 {
		c.mu.RLock()
		ver, epoch := c.vers[name], c.epoch
		c.mu.RUnlock()
		return Mutation{Name: name, Old: old, New: old, Version: ver, Epoch: epoch}, nil
	}
	if err := c.logMutation(Mutation{Name: name, Added: added, Removed: removed, Old: old}); err != nil {
		return Mutation{}, fmt.Errorf("catalog: mutate %q: %w", name, err)
	}
	tuplesInserted.Add(uint64(len(added)))
	tuplesDeleted.Add(uint64(len(removed)))
	// Linear-merge rebuild: O(N + Δ log Δ), no full re-sort.
	next := relation.ApplyDelta(old, name, added, removed)
	ver, epoch := c.mutate(func(m map[string]*relation.Relation) { m[name] = next }, name)
	mut := Mutation{
		Name: name, Added: added, Removed: removed,
		Old: old, New: next, Version: ver, Epoch: epoch,
	}
	c.notify(mut)
	return mut, nil
}

// InsertPairs adds tuples to relation name, returning the effective
// (coalesced) mutation.
func (c *Catalog) InsertPairs(name string, pairs []relation.Pair) (Mutation, error) {
	return c.Mutate(name, pairs, nil)
}

// DeletePairs removes tuples from relation name, returning the effective
// (coalesced) mutation.
func (c *Catalog) DeletePairs(name string, pairs []relation.Pair) (Mutation, error) {
	return c.Mutate(name, nil, pairs)
}

// Version returns name's per-relation version: 0 until first registered,
// bumped by every Register, Drop, and effective tuple mutation. Plan-cache
// keys are built from the versions of the relations a query reads.
func (c *Catalog) Version(name string) uint64 {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.vers[name]
}

// Get returns the relation bound to name.
func (c *Catalog) Get(name string) (*relation.Relation, bool) {
	m, _ := c.snapshot()
	r, ok := m[name]
	return r, ok
}

// Len returns the number of registered relations.
func (c *Catalog) Len() int {
	m, _ := c.snapshot()
	return len(m)
}

// Epoch returns the catalog's statistics epoch; it changes on every
// registration or drop.
func (c *Catalog) Epoch() uint64 {
	_, e := c.snapshot()
	return e
}

// List returns Table-2 style stats for every relation, sorted by name.
func (c *Catalog) List() []Info {
	m, _ := c.snapshot()
	out := make([]Info, 0, len(m))
	for name, r := range m {
		out = append(out, Info{Name: name, Stats: r.Stats()})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// LoadFile reads a relation from a file written by (*Relation).Save and
// registers it under name, returning the loaded relation. The registration
// carries the file's absolute path, SHA-256 and tuple count as its origin,
// so a durability sink can log the ~100-byte reference instead of the full
// tuple image (replay re-reads the file and verifies the digest).
func (c *Catalog) LoadFile(name, path string) (*relation.Relation, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("catalog: load %q: %w", name, err)
	}
	r, err := relation.ReadFrom(bytes.NewReader(data))
	if err != nil {
		return nil, fmt.Errorf("catalog: load %q: %s: %w", name, path, err)
	}
	abs, err := filepath.Abs(path)
	if err != nil {
		abs = path
	}
	origin := &FileOrigin{Path: abs, SHA256: sha256.Sum256(data), Tuples: uint64(r.Size())}
	if err := c.registerOrigin(name, r, origin); err != nil {
		return nil, err
	}
	return r, nil
}

// LoadFiles loads several name → path specs concurrently; the catalog epoch
// advances once per successful registration. The first error wins, but every
// load is attempted.
func (c *Catalog) LoadFiles(specs map[string]string) error {
	var wg sync.WaitGroup
	errs := make(chan error, len(specs))
	for name, path := range specs {
		wg.Add(1)
		go func(name, path string) {
			defer wg.Done()
			if _, err := c.LoadFile(name, path); err != nil {
				errs <- err
			}
		}(name, path)
	}
	wg.Wait()
	close(errs)
	return <-errs
}

// MaxCachedMaterializedRows bounds the compile-time bag rows the plan cache
// may pin in aggregate, across all cached plans: cyclic queries materialize
// their decomposition bags during compilation, and an LRU bounded only by
// entry count would otherwise hold unbounded memory. When inserting a plan
// would exceed the budget, least-recently-used entries are evicted first; a
// single plan above the whole budget is never cached (it still runs — it is
// just recompiled per request).
const MaxCachedMaterializedRows = 1 << 20

// PrepareContext compiles query text against the current catalog snapshot,
// serving repeats from the LRU plan cache; the second result reports a cache
// hit. Compiling a cyclic query materializes decomposition bags, so the
// context deadline applies to compilation too, not just execution.
func (c *Catalog) PrepareContext(ctx context.Context, src string) (*query.Prepared, bool, error) {
	q, err := query.Parse(src)
	if err != nil {
		return nil, false, err
	}
	c.mu.RLock()
	snap := c.rels
	sig := versionSignature(q, c.vers)
	c.mu.RUnlock()
	key := planKey{text: q.String(), sig: sig}
	if p := c.cacheGet(key); p != nil {
		return p, true, nil
	}
	p, err := query.CompileContext(ctx, q, query.MapResolver(snap))
	if err != nil {
		return nil, false, err
	}
	c.cachePut(key, p)
	return p, false, nil
}

// Signature renders the version signature of the relations q references
// against the current catalog — the same key component the plan cache uses.
// Any effective mutation of a referenced relation changes the signature, so
// caches keyed on (canonical text, signature) are implicitly invalidated by
// exactly the mutations that could change the result.
func (c *Catalog) Signature(q *query.Query) string {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return versionSignature(q, c.vers)
}

// versionSignature renders the versions of the relations q references, e.g.
// "R@3\x00S@7". Only those versions participate in the plan-cache key, so
// mutating an unrelated relation never evicts a still-valid prepared plan.
func versionSignature(q *query.Query, vers map[string]uint64) string {
	names := q.Relations()
	sort.Strings(names)
	var b strings.Builder
	for i, n := range names {
		if i > 0 {
			b.WriteByte(0)
		}
		b.WriteString(n)
		b.WriteByte('@')
		b.WriteString(strconv.FormatUint(vers[n], 10))
	}
	return b.String()
}

// CacheStats returns plan-cache hit/miss counters and current size.
func (c *Catalog) CacheStats() (hits, misses uint64, size int) {
	c.cacheMu.Lock()
	defer c.cacheMu.Unlock()
	return c.hits, c.misses, c.cache.len()
}

func (c *Catalog) cacheGet(key planKey) *query.Prepared {
	c.cacheMu.Lock()
	defer c.cacheMu.Unlock()
	if p := c.cache.get(key); p != nil {
		c.hits++
		return p
	}
	c.misses++
	return nil
}

func (c *Catalog) cachePut(key planKey, p *query.Prepared) {
	c.cacheMu.Lock()
	defer c.cacheMu.Unlock()
	c.cache.put(key, p)
}

// planKey identifies one cached plan: canonical query text plus the version
// signature of the relations it reads. Mutating any referenced relation
// changes the signature, so stale plans are implicitly invalidated (they age
// out of the LRU) while plans over untouched relations keep hitting.
type planKey struct {
	text string
	sig  string
}

// weightedLRU is a minimal LRU keyed like the plan cache, bounded both by
// entry count and by the aggregate weight its values pin (weigh gives one
// value's). Both catalog caches are one: compiled plans weigh their
// materialized bag rows, sorted results their tuples. Not safe for
// concurrent use; the catalog serializes access.
type weightedLRU[V any] struct {
	cap       int
	weightCap int
	weigh     func(V) int
	weight    int        // total weight of cached entries
	order     *list.List // front = most recent; values are *lruEntry[V]
	entries   map[planKey]*list.Element
}

type lruEntry[V any] struct {
	key    planKey
	v      V
	weight int
}

func newWeightedLRU[V any](capacity, weightCap int, weigh func(V) int) *weightedLRU[V] {
	return &weightedLRU[V]{
		cap: capacity, weightCap: weightCap, weigh: weigh,
		order: list.New(), entries: map[planKey]*list.Element{},
	}
}

func newPlanLRU(capacity int) *weightedLRU[*query.Prepared] {
	return newWeightedLRU(capacity, MaxCachedMaterializedRows, (*query.Prepared).MaterializedRows)
}

func (l *weightedLRU[V]) len() int { return l.order.Len() }

// get returns the value cached under key, or the zero V.
func (l *weightedLRU[V]) get(key planKey) (v V) {
	el, ok := l.entries[key]
	if !ok {
		return v
	}
	l.order.MoveToFront(el)
	return el.Value.(*lruEntry[V]).v
}

// put caches v under key, unless v alone outweighs the whole budget.
func (l *weightedLRU[V]) put(key planKey, v V) {
	w := l.weigh(v)
	if l.cap <= 0 || w > l.weightCap {
		return
	}
	if el, ok := l.entries[key]; ok {
		e := el.Value.(*lruEntry[V])
		l.weight += w - e.weight
		e.v, e.weight = v, w
		l.order.MoveToFront(el)
	} else {
		l.entries[key] = l.order.PushFront(&lruEntry[V]{key: key, v: v, weight: w})
		l.weight += w
	}
	for l.order.Len() > l.cap || l.weight > l.weightCap {
		back := l.order.Back()
		e := back.Value.(*lruEntry[V])
		l.order.Remove(back)
		delete(l.entries, e.key)
		l.weight -= e.weight
	}
}
