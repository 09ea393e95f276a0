package view

import "slices"

// StoreSize reports v's counted store: the members it holds, dead ones
// included, and the members whose count is non-zero, tallied afresh.
func StoreSize(v *View) (members, live int) {
	v.mu.RLock()
	defer v.mu.RUnlock()
	for _, c := range v.counts {
		if c != 0 {
			live++
		}
	}
	return v.store.Len(), live
}

// Births reports how many members v lists as born since its last merge,
// and how many are live.
func Births(v *View) (born, live int) {
	v.mu.RLock()
	defer v.mu.RUnlock()
	return len(v.born), v.live
}

// Built reports whether v holds its whole result, built since the last
// change.
func Built(v *View) bool {
	v.mu.RLock()
	defer v.mu.RUnlock()
	return v.cached != nil
}

// SortedMembers brings v's head-ordered member list up to date and returns
// the members' head tuples in that order.
func SortedMembers(v *View) [][]int32 {
	v.mu.Lock()
	defer v.mu.Unlock()
	v.sortLive()
	out := make([][]int32, len(v.order))
	for i, m := range v.order {
		out[i] = slices.Clone(v.store.At(int(m)))
	}
	return out
}
