package view

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
