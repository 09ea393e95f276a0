package matrix

import "sync"

// Per-worker scratch recycling for the streaming kernels.
// ForEachRowProductStop and SpGEMMCounts are invoked once per engine chunk
// (star join groups, BSI batches, SSJ probes); pooling the count/accumulator buffers makes a warm
// steady state allocate nothing per call, which the zero-alloc tests in
// diff_test.go pin down.

// int32Pool recycles the per-worker count blocks of ForEachRowProductStop.
var int32Pool = sync.Pool{New: func() any { return new([]int32) }}

func getInt32Scratch(n int) *[]int32 {
	p := int32Pool.Get().(*[]int32)
	if cap(*p) < n {
		*p = make([]int32, n)
	}
	*p = (*p)[:n]
	return p
}

func putInt32Scratch(p *[]int32) { int32Pool.Put(p) }

// spgemmScratch is the per-worker state of SpGEMMCounts: the dense
// accumulator plus the cols/counts output buffers. Invariant: every entry of
// acc[:cap] is zero while the scratch sits in the pool — the harvest step
// re-zeroes exactly the entries it touched, and entries beyond the current
// length were either never written or zeroed by an earlier, longer use.
type spgemmScratch struct {
	acc    []int32
	cols   []int32
	counts []int32
}

var spgemmPool = sync.Pool{New: func() any { return new(spgemmScratch) }}

func getSpGEMMScratch(cols int) *spgemmScratch {
	s := spgemmPool.Get().(*spgemmScratch)
	if cap(s.acc) < cols {
		s.acc = make([]int32, cols)
	} else {
		s.acc = s.acc[:cols]
	}
	if cap(s.cols) < cols {
		s.cols = make([]int32, 0, cols)
		s.counts = make([]int32, 0, cols)
	}
	return s
}

func putSpGEMMScratch(s *spgemmScratch) { spgemmPool.Put(s) }
