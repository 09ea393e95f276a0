package view

import (
	"context"
	"fmt"
	"slices"
	"sort"

	"repro/internal/snapshot"
)

// ExportStates copies every registered view's checkpoint image, sorted by
// name: the definition plus — for incremental views — the counted store
// itself, so recovery restores the view without recomputing it. To get
// images consistent with a catalog snapshot, call it under the catalog's
// mutation freeze (maintenance runs synchronously inside the mutation lock,
// so freezing mutations freezes the stores too).
func (r *Registry) ExportStates() []snapshot.View {
	r.mu.RLock()
	views := make([]*View, 0, len(r.views))
	for _, v := range r.views {
		views = append(views, v)
	}
	r.mu.RUnlock()
	out := make([]snapshot.View, 0, len(views))
	for _, v := range views {
		out = append(out, v.exportState())
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// exportState copies one view's live members into its image, in head
// order, so the image adopts without a sort.
func (v *View) exportState() snapshot.View {
	v.mu.Lock()
	defer v.mu.Unlock()
	img := snapshot.View{Name: v.name, Text: v.text, Incremental: v.mode == ModeIncremental}
	if !img.Incremental {
		return img
	}
	v.sortLive()
	img.Width = len(v.plan.an.Head.Vars)
	img.Vals = make([]int32, 0, img.Width*v.live)
	img.Counts = make([]int64, 0, v.live)
	for _, m := range v.order {
		img.Vals = append(img.Vals, v.store.At(int(m))...)
		img.Counts = append(img.Counts, v.counts[m])
	}
	return img
}

// Restore registers a checkpointed view from its image against the
// catalog's CURRENT contents: the caller guarantees the catalog has been
// restored to the same point the image was exported at (that is what the
// snapshot/WAL pairing provides). Incremental views adopt the saved counted
// store directly — no recomputation; refresh-mode views are restored stale
// and recompute lazily on first read. The maintenance mode is re-derived
// from the query text, so an image whose Incremental flag disagrees with the
// compiled fragment is rejected rather than silently served.
func (r *Registry) Restore(img snapshot.View) error {
	_, err := r.install(context.Background(), img.Name, img.Text, &img)
	return err
}

// Materialize builds the result of every incremental view changed since it
// was last read. Recovery calls it once the log tail is replayed, so the
// first reads after a restart slice a built result; refresh views still
// recompute lazily.
func (r *Registry) Materialize() {
	r.mu.RLock()
	views := make([]*View, 0, len(r.views))
	for _, v := range r.views {
		views = append(views, v)
	}
	r.mu.RUnlock()
	for _, v := range views {
		if v.mode == ModeIncremental {
			_, _, _, _ = v.Result(context.Background()) // an incremental read cannot fail
		}
	}
}

// adopt fills the empty counted store from img, skipping zero-count
// entries, and lists its members in head order: as stored when the image is
// sorted, as every exported one is, else after one sort. An image that does
// not fit the head, or repeats a tuple, is rejected rather than restored
// wrongly. Callers hold v.mu.
func (v *View) adopt(img *snapshot.View) error {
	w := len(v.plan.an.Head.Vars)
	if len(img.Vals) != img.Width*len(img.Counts) {
		return fmt.Errorf("view %q: restore: %d values for %d entries of arity %d", v.name, len(img.Vals), len(img.Counts), img.Width)
	}
	if len(img.Counts) > 0 && img.Width != w {
		return fmt.Errorf("view %q: restore: entry arity %d, store wants %d", v.name, img.Width, w)
	}
	v.counts = make([]int64, 0, len(img.Counts))
	v.order = make([]int32, 0, len(img.Counts))
	sorted, last := true, []int32(nil)
	for i, c := range img.Counts {
		if c == 0 {
			continue
		}
		tup := img.Vals[i*w : (i+1)*w]
		m, fresh := v.store.Insert(tup)
		if !fresh {
			return fmt.Errorf("view %q: restore: repeated tuple %v", v.name, tup)
		}
		sorted = sorted && (m == 0 || slices.Compare(last, tup) < 0)
		last = tup
		v.counts = append(v.counts, c)
		v.order = append(v.order, int32(m))
	}
	if !sorted {
		slices.SortFunc(v.order, v.compareMembers)
	}
	v.live = len(v.counts)
	return nil
}
