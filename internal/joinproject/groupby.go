package joinproject

import (
	"repro/internal/relation"
)

// GroupCount is a per-group aggregate over the projected join: for one x
// value, Distinct is the number of distinct join partners z (the group's
// size in π_{x,z}).
type GroupCount struct {
	X        int32
	Distinct int64
}

// TwoPathGroupBy evaluates the group-by aggregate
//
//	γ_{x; COUNT(DISTINCT z)}(R(x,y) ⋈ S(z,y))
//
// output-sensitively with Algorithm 1's partition, in set semantics: each
// count is the size of the x's deduplicated row — the light expansion (dense
// rows OR-ed as bitmaps) plus the matrix row nonzeros — and no row is
// stored. This is the Section-9 direction ("matrix multiplication in
// group-by aggregate queries", cf. [36]): the aggregate never materializes
// the join, and groups whose pairs are all heavy are counted entirely inside
// the matrix product.
func TwoPathGroupBy(r, s *relation.Relation, opt Options) []GroupCount {
	opt = opt.normalize(r, s)
	c := newTwoPathCtxParallel(r, s, opt.Delta1, opt.Delta2, opt.Workers, opt.Stop)
	nx := c.rX.NumKeys()
	// Every x's row arrives once, whole, from a single goroutine, so the
	// per-position slots are written race-free.
	distinct := make([]int64, nx)
	c.runMode(opt.Workers, true, false, func(_, xpos int, zps, _ []int32) {
		distinct[xpos] = int64(len(zps))
	})
	out := make([]GroupCount, 0, nx)
	for i, n := range distinct {
		if n > 0 {
			out = append(out, GroupCount{X: c.rX.Key(i), Distinct: n})
		}
	}
	return out
}
