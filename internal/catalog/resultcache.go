package catalog

// Sorted-result cache: pagination serves tuples in canonical sorted order,
// and before this cache every page request re-evaluated and re-sorted the
// full result. Entries are keyed exactly like compiled plans — (canonical
// query text, version signature of the referenced relations) — so a
// limit/cursor page sequence over an unchanged catalog hits the same sorted
// slice, and any effective mutation of a referenced relation changes the
// signature, invalidating precisely the results it could have changed.

// DefaultResultCacheEntries is the sorted-result cache's entry capacity.
const DefaultResultCacheEntries = 64

// MaxCachedResultRows bounds the aggregate rows the sorted-result cache may
// pin across all entries; a single result above the whole budget is served
// but never cached.
const MaxCachedResultRows = 1 << 20

// SortedResult is one cached (or freshly computed) sorted query result.
type SortedResult struct {
	// Columns are the head labels.
	Columns []string
	// Tuples are the distinct result tuples in canonical sorted order.
	// Shared — callers must not modify.
	Tuples [][]int64
	// Plan is the rendered plan of the evaluation that produced the result.
	Plan string
	// PlanCached reports whether that evaluation hit the plan cache.
	PlanCached bool
	// Cached reports whether this result itself came from the cache (the
	// page was served without re-evaluating or re-sorting).
	Cached bool
}

// CachedSortedResult returns the cached sorted result for (text, sig), if
// any. The returned result has Cached set.
func (c *Catalog) CachedSortedResult(text, sig string) (SortedResult, bool) {
	c.resultMu.Lock()
	defer c.resultMu.Unlock()
	if r := c.results.get(planKey{text: text, sig: sig}); r != nil {
		c.resultHits++
		hit := *r
		hit.Cached = true
		return hit, true
	}
	c.resultMisses++
	return SortedResult{}, false
}

// StoreSortedResult caches one sorted result under (text, sig).
func (c *Catalog) StoreSortedResult(text, sig string, r SortedResult) {
	c.resultMu.Lock()
	defer c.resultMu.Unlock()
	r.Cached = false
	c.results.put(planKey{text: text, sig: sig}, &r)
}

// ResultCacheStats returns sorted-result cache hit/miss counters and size.
func (c *Catalog) ResultCacheStats() (hits, misses uint64, size int) {
	c.resultMu.Lock()
	defer c.resultMu.Unlock()
	return c.resultHits, c.resultMisses, c.results.len()
}

func newResultLRU(capacity int) *weightedLRU[*SortedResult] {
	return newWeightedLRU(capacity, MaxCachedResultRows, func(r *SortedResult) int { return len(r.Tuples) })
}
