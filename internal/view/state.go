package view

import (
	"fmt"
	"sort"

	"repro/internal/query"
)

// State is one view's serializable materialization, the unit the durability
// layer checkpoints: the definition plus — for incremental views — the
// count-backed store itself, so recovery restores the view without
// recomputing it. Refresh-mode views persist only their definition and are
// restored stale (recomputed lazily on first read, exactly the staleness
// semantics they have live).
type State struct {
	// Name is the registered view name.
	Name string
	// Text is the canonical query text.
	Text string
	// Incremental marks a view whose Entries carry the counted store.
	Incremental bool
	// Entries is the counted store of an incremental view (unordered).
	Entries []StateEntry
}

// StateEntry is one live output tuple of a counted store: head values in
// store key order plus the support count.
type StateEntry struct {
	// Vals are the head variable values.
	Vals []int32
	// Count is the support count (join witnesses).
	Count int64
}

// ExportStates deep-copies every registered view's state, sorted by name.
// To get a checkpoint image consistent with a catalog snapshot, call it
// under the catalog's mutation freeze (maintenance runs synchronously inside
// the mutation lock, so freezing mutations freezes the stores too).
func (r *Registry) ExportStates() []State {
	r.mu.RLock()
	views := make([]*View, 0, len(r.views))
	for _, v := range r.views {
		views = append(views, v)
	}
	r.mu.RUnlock()
	out := make([]State, 0, len(views))
	for _, v := range views {
		out = append(out, v.exportState())
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// exportState deep-copies one view's state.
func (v *View) exportState() State {
	v.mu.RLock()
	defer v.mu.RUnlock()
	st := State{Name: v.name, Text: v.text, Incremental: v.mode == ModeIncremental}
	if !st.Incremental {
		return st
	}
	st.Entries = make([]StateEntry, 0, len(v.counts))
	for _, e := range v.counts {
		st.Entries = append(st.Entries, StateEntry{
			Vals:  append([]int32(nil), e.vals...),
			Count: e.count,
		})
	}
	return st
}

// Restore registers a checkpointed view from its serialized state against
// the catalog's CURRENT contents: the caller guarantees the catalog has been
// restored to the same point the state was exported at (that is what the
// snapshot/WAL pairing provides). Incremental views adopt the saved counted
// store directly — no recomputation; refresh-mode views are restored stale
// and recompute lazily on first read. The maintenance mode is re-derived
// from the query text, so a state whose Incremental flag disagrees with the
// compiled fragment is rejected rather than silently served.
func (r *Registry) Restore(st State) error {
	if st.Name == "" {
		return fmt.Errorf("view: restore with empty view name")
	}
	q, err := query.Parse(st.Text)
	if err != nil {
		return fmt.Errorf("view %q: restore: %w", st.Name, err)
	}
	r.mu.RLock()
	_, dup := r.views[st.Name]
	r.mu.RUnlock()
	if dup {
		return fmt.Errorf("view %q %w", st.Name, ErrExists)
	}

	v, plan, reason := r.newView(st.Name, q)
	if (plan != nil) != st.Incremental {
		return fmt.Errorf("view %q: restore: state mode (incremental=%v) disagrees with compiled fragment", st.Name, st.Incremental)
	}
	rels, vers, _ := r.cfg.Catalog.Snapshot()
	names := q.Relations()
	for _, n := range names {
		if _, ok := rels[n]; !ok {
			return fmt.Errorf("view %q: restore: unknown relation %q", st.Name, n)
		}
	}
	if plan == nil {
		v.mode, v.reason = ModeRefresh, reason
		v.stale = true // recompute lazily on first read
		for _, n := range names {
			v.curVer[n] = vers[n]
		}
	} else {
		v.mode, v.plan = ModeIncremental, plan
		for _, e := range st.Entries {
			if len(e.Vals) != len(plan.an.Head.Vars) {
				return fmt.Errorf("view %q: restore: entry arity %d, store wants %d", st.Name, len(e.Vals), len(plan.an.Head.Vars))
			}
			if e.Count == 0 {
				continue
			}
			vals := append([]int32(nil), e.Vals...)
			v.counts[key(vals)] = &entry{vals: vals, count: e.Count}
		}
		for _, n := range names {
			v.cur[n] = rels[n]
			v.curVer[n] = vers[n]
		}
		v.dirty = true
	}

	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.views[st.Name]; dup {
		return fmt.Errorf("view %q %w", st.Name, ErrExists)
	}
	r.views[st.Name] = v
	return nil
}
