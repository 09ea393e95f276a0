package joinproject

import (
	"repro/internal/relation"
)

// GroupCount is a per-group aggregate over the projected join: for one x
// value, Distinct is the number of distinct join partners z (the group's
// size in π_{x,z}) and Witnesses is the total witness multiplicity (the
// group's size in the full join R ⋈ S).
type GroupCount struct {
	X         int32
	Distinct  int64
	Witnesses int64
}

// TwoPathGroupBy evaluates the group-by aggregate
//
//	γ_{x; COUNT(DISTINCT z), COUNT(*)}(R(x,y) ⋈ S(z,y))
//
// output-sensitively with Algorithm 1's partition: distinct counts fall out
// of the deduplicated light expansion plus the matrix row nonzeros, and
// witness counts from the same pass's multiplicities. This is the Section-9
// direction ("matrix multiplication in group-by aggregate queries",
// cf. [36]): the aggregate never materializes the join, and groups whose
// pairs are all heavy are counted entirely inside the matrix product.
func TwoPathGroupBy(r, s *relation.Relation, opt Options) []GroupCount {
	opt = opt.normalize(r, s)
	c := newTwoPathCtxParallel(r, s, opt.Delta1, opt.Delta2, 1, opt.Stop)
	nx := c.rX.NumKeys()
	// Every x's row arrives once, whole, from a single goroutine, so the
	// per-position slots are written race-free.
	distinct := make([]int64, nx)
	witnesses := make([]int64, nx)
	c.runMode(opt.Workers, true, true, DedupStamp, func(_, xpos int, zps, cnt []int32) {
		distinct[xpos] = int64(len(zps))
		for _, zp := range zps {
			witnesses[xpos] += int64(cnt[zp])
		}
	})
	out := make([]GroupCount, 0, nx)
	for i := 0; i < nx; i++ {
		if distinct[i] > 0 {
			out = append(out, GroupCount{X: c.rX.Key(i), Distinct: distinct[i], Witnesses: witnesses[i]})
		}
	}
	return out
}
