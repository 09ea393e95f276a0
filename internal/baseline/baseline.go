// Package baseline implements the engines the paper compares against in
// Section 7.2.
//
// PostgreSQL, MySQL and "commercial database X" all evaluate a join-project
// query by materializing the full join and deduplicating afterwards; the
// paper uses them as full-join-then-dedup strawmen. The three functions
// below reproduce exactly those plans, differing only in join method and
// dedup structure (the same axes on which the real systems differ):
//
//   - HashJoinDedup ("Postgres"): hash join on y, hash-set deduplication.
//   - SortMergeJoinDedup ("MySQL"): merge join over the y indexes,
//     sort-based deduplication of the materialized pair list.
//   - SystemXJoinDedup ("X"): merge join with sorted-run deduplication —
//     bounded-memory runs merged at the end, which is why the paper sees it
//     "marginally better" than the other two.
//
// EmptyHeadedJoin reproduces the behaviour of the EmptyHeaded engine: a
// worst-case optimal join whose set intersections use a hybrid layout —
// bit-packed words on dense y-domains (the stand-in for EmptyHeaded's SIMD
// intersections) and galloping merges on sparse ones. This is why it tracks
// MMJoin on dense datasets in Figure 4a.
package baseline

import (
	"container/heap"
	"sort"
	"sync"

	"repro/internal/bitset"
	"repro/internal/par"
	"repro/internal/relation"
	"repro/internal/wcoj"
)

func packPair(x, z int32) uint64 {
	return uint64(uint32(x))<<32 | uint64(uint32(z))
}

func unpackPair(p uint64) [2]int32 {
	return [2]int32{int32(uint32(p >> 32)), int32(uint32(p))}
}

// HashJoinDedup evaluates π_{x,z}(R ⋈ S) with a hash join on y followed by
// hash-set deduplication, the canonical RDBMS plan. The full join is
// streamed (not stored), but every full-join tuple pays the hash probe and
// the dedup-set lookup, which is the cost profile the paper attributes to
// Postgres/MySQL.
func HashJoinDedup(r, s *relation.Relation) [][2]int32 {
	// Build side: hash table y → z-list from the smaller relation.
	build := make(map[int32][]int32, s.NumY())
	sy := s.ByY()
	for i := 0; i < sy.NumKeys(); i++ {
		build[sy.Key(i)] = sy.List(i)
	}
	seen := make(map[uint64]struct{})
	rx := r.ByX()
	for i := 0; i < rx.NumKeys(); i++ {
		x := rx.Key(i)
		for _, y := range rx.List(i) {
			for _, z := range build[y] {
				seen[packPair(x, z)] = struct{}{}
			}
		}
	}
	out := make([][2]int32, 0, len(seen))
	for p := range seen {
		out = append(out, unpackPair(p))
	}
	return out
}

// SortMergeJoinDedup evaluates the same plan with a merge join over the two
// y indexes and sort-based deduplication of the materialized pair list —
// the "sort the full join result" strategy whose cost the paper highlights
// when |OUT⋈| ≫ |OUT|.
func SortMergeJoinDedup(r, s *relation.Relation) [][2]int32 {
	var pairs []uint64
	wcoj.EnumerateJoin([]*relation.Relation{r, s}, func(y int32, lists [][]int32) {
		for _, x := range lists[0] {
			for _, z := range lists[1] {
				pairs = append(pairs, packPair(x, z))
			}
		}
	})
	sort.Slice(pairs, func(i, j int) bool { return pairs[i] < pairs[j] })
	out := make([][2]int32, 0)
	for i, p := range pairs {
		if i == 0 || p != pairs[i-1] {
			out = append(out, unpackPair(p))
		}
	}
	return out
}

// systemXRunSize bounds the in-memory run length of SystemXJoinDedup.
const systemXRunSize = 1 << 18

// SystemXJoinDedup models "commercial database X": merge join with
// bounded-memory sorted-run deduplication. Runs of the materialized join are
// sorted and deduplicated eagerly, and the sorted runs are merged at the
// end; eager in-run dedup is what makes it marginally faster than the other
// two full-join baselines on duplicate-heavy data.
func SystemXJoinDedup(r, s *relation.Relation) [][2]int32 {
	var runs [][]uint64
	run := make([]uint64, 0, systemXRunSize)
	flush := func() {
		if len(run) == 0 {
			return
		}
		sort.Slice(run, func(i, j int) bool { return run[i] < run[j] })
		dst := run[:0]
		for i, p := range run {
			if i == 0 || p != run[i-1] {
				dst = append(dst, p)
			}
		}
		cp := make([]uint64, len(dst))
		copy(cp, dst)
		runs = append(runs, cp)
		run = run[:0]
	}
	wcoj.EnumerateJoin([]*relation.Relation{r, s}, func(y int32, lists [][]int32) {
		for _, x := range lists[0] {
			for _, z := range lists[1] {
				run = append(run, packPair(x, z))
				if len(run) == systemXRunSize {
					flush()
				}
			}
		}
	})
	flush()
	return mergeRuns(runs)
}

// mergeRuns k-way merges sorted deduplicated runs with a binary heap,
// dropping duplicates.
func mergeRuns(runs [][]uint64) [][2]int32 {
	h := runHeap{}
	for i, r := range runs {
		if len(r) > 0 {
			h = append(h, runCursor{head: r[0], run: i})
		}
	}
	heap.Init(&h)
	idx := make([]int, len(runs))
	var out [][2]int32
	var last uint64
	first := true
	for h.Len() > 0 {
		top := h[0]
		p := top.head
		if first || p != last {
			out = append(out, unpackPair(p))
			last, first = p, false
		}
		idx[top.run]++
		if idx[top.run] < len(runs[top.run]) {
			h[0].head = runs[top.run][idx[top.run]]
			heap.Fix(&h, 0)
		} else {
			heap.Pop(&h)
		}
	}
	return out
}

type runCursor struct {
	head uint64
	run  int
}

type runHeap []runCursor

func (h runHeap) Len() int            { return len(h) }
func (h runHeap) Less(i, j int) bool  { return h[i].head < h[j].head }
func (h runHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *runHeap) Push(x interface{}) { *h = append(*h, x.(runCursor)) }
func (h *runHeap) Pop() interface{} {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

// emptyHeadedDensityCutoff selects the bitset layout when a y-list covers at
// least 1/64 of the y-domain — the break-even density for word-packed
// intersections, mirroring EmptyHeaded's dense/sparse hybrid sets.
const emptyHeadedDensityCutoff = 64

// EmptyHeadedJoin evaluates π_{x,z}(R ⋈ S) the way the EmptyHeaded engine
// does: attribute-ordered WCOJ where the innermost step checks
// R[x].ys ∩ S[z].ys ≠ ∅ with hybrid set intersections. Dense lists are
// bit-packed over the joint y-domain and intersected word-wise; sparse ones
// use galloping merges. workers ≤ 0 uses all cores.
func EmptyHeadedJoin(r, s *relation.Relation, workers int) [][2]int32 {
	ydom := make(map[int32]int)
	for _, y := range relation.CommonYs(r, s) {
		ydom[y] = len(ydom)
	}
	ny := len(ydom)
	if ny == 0 {
		return nil
	}
	sx := s.ByX()
	rx := r.ByX()

	type zrep struct {
		z      int32
		dense  *bitset.Bitset
		sparse []int32 // y positions, sorted
	}
	zreps := make([]zrep, 0, sx.NumKeys())
	for i := 0; i < sx.NumKeys(); i++ {
		list := sx.List(i)
		pos := make([]int32, 0, len(list))
		for _, y := range list {
			if p, ok := ydom[y]; ok {
				pos = append(pos, int32(p))
			}
		}
		if len(pos) == 0 {
			continue
		}
		sort.Slice(pos, func(a, b int) bool { return pos[a] < pos[b] })
		zr := zrep{z: sx.Key(i), sparse: pos}
		if len(pos)*emptyHeadedDensityCutoff >= ny {
			zr.dense = bitset.New(ny)
			for _, p := range pos {
				zr.dense.Set(int(p))
			}
		}
		zreps = append(zreps, zr)
	}

	ranges := par.Ranges(rx.NumKeys(), workers)
	results := make([][][2]int32, len(ranges))
	var wg sync.WaitGroup
	for slot, rg := range ranges {
		wg.Add(1)
		go func(slot, lo, hi int) {
			defer wg.Done()
			var local [][2]int32
			xb := bitset.New(ny)
			for i := lo; i < hi; i++ {
				x := rx.Key(i)
				list := rx.List(i)
				pos := make([]int32, 0, len(list))
				for _, y := range list {
					if p, ok := ydom[y]; ok {
						pos = append(pos, int32(p))
					}
				}
				if len(pos) == 0 {
					continue
				}
				sort.Slice(pos, func(a, b int) bool { return pos[a] < pos[b] })
				xDense := len(pos)*emptyHeadedDensityCutoff >= ny
				if xDense {
					xb.Reset()
					for _, p := range pos {
						xb.Set(int(p))
					}
				}
				for _, zr := range zreps {
					hit := false
					if xDense && zr.dense != nil {
						hit = xb.Intersects(zr.dense)
					} else {
						hit = relation.IntersectCount(pos, zr.sparse) > 0
					}
					if hit {
						local = append(local, [2]int32{x, zr.z})
					}
				}
			}
			results[slot] = local
		}(slot, rg[0], rg[1])
	}
	wg.Wait()
	var out [][2]int32
	for _, part := range results {
		out = append(out, part...)
	}
	return out
}
