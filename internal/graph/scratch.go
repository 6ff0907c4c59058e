package graph

import (
	"math"
	"sync"
)

// traversal scratch: the Sub traversals (BFSOrder, Components, EdgesWithin,
// CostNormWithin) run inside the decomposition recursion's hot loop —
// every splitting-oracle call orders a vertex set — and used to allocate a
// map per call. They now draw epoch-stamped int32 buffers from a pool: a
// vertex (or edge) is "seen" iff its stamp equals the current epoch, so
// clearing between calls is one counter increment instead of an O(N)
// wipe, and the buffers themselves are reused process-wide.

// scratch is one reusable traversal workspace. stamp marks vertices,
// estamp marks edges; both compare against epoch. queue is the BFS queue.
type scratch struct {
	stamp  []int32
	estamp []int32
	epoch  int32
	queue  []int32
}

var scratchPool = sync.Pool{New: func() any { return &scratch{} }}

// acquireScratch returns a workspace covering n vertices and m edges with
// a fresh epoch. The epoch only grows (all stored stamps are ≤ the last
// epoch, and freshly allocated buffers are zero while the epoch is ≥ 1),
// so bumping it invalidates every stale mark at once; the one overflow per
// ~2 billion acquisitions pays an explicit wipe. Callers must
// releaseScratch when done; all outputs are copied out, so nothing
// aliases the workspace afterwards.
func acquireScratch(n, m int) *scratch {
	s := scratchPool.Get().(*scratch)
	if s.epoch == math.MaxInt32 {
		clear(s.stamp)
		clear(s.estamp)
		s.epoch = 0
	}
	s.epoch++
	if cap(s.stamp) < n {
		s.stamp = make([]int32, n)
	}
	s.stamp = s.stamp[:cap(s.stamp)]
	if cap(s.estamp) < m {
		s.estamp = make([]int32, m)
	}
	s.estamp = s.estamp[:cap(s.estamp)]
	return s
}

// releaseScratch returns the workspace to the pool.
func releaseScratch(s *scratch) {
	s.queue = s.queue[:0]
	scratchPool.Put(s)
}

// seen reports whether vertex v was marked this epoch, marking it.
func (s *scratch) seen(v int32) bool {
	if s.stamp[v] == s.epoch {
		return true
	}
	s.stamp[v] = s.epoch
	return false
}

// seenEdge reports whether edge e was marked this epoch, marking it.
func (s *scratch) seenEdge(e int32) bool {
	if s.estamp[e] == s.epoch {
		return true
	}
	s.estamp[e] = s.epoch
	return false
}

// ---- matching scratch ----

// MatchScratch is a pooled int32 work buffer sized for one matching
// sweep: the assignment array of coarsen's heavy-edge matching. Its user
// fills it with −1 at the start of every level, so unlike the stamped
// traversal scratch it carries no epoch discipline — pooling it only
// removes the O(N) allocation per hierarchy level that used to dominate
// Build's allocation profile.
type MatchScratch struct {
	// Assign is the per-vertex coarse-id assignment buffer.
	Assign []int32
}

var matchPool = sync.Pool{New: func() any { return &MatchScratch{} }}

// AcquireMatchScratch returns a pooled matching workspace covering n
// vertices. Callers must Release it when the hierarchy is built; the
// assignment is copied out by Contract (Contraction.Map), so nothing
// aliases the workspace afterwards.
func AcquireMatchScratch(n int) *MatchScratch {
	ms := matchPool.Get().(*MatchScratch)
	if cap(ms.Assign) < n {
		ms.Assign = make([]int32, n)
	}
	ms.Assign = ms.Assign[:n]
	return ms
}

// Release returns the workspace to the pool.
func (ms *MatchScratch) Release() { matchPool.Put(ms) }

// ---- quotient (contraction) scratch ----

// quotientScratch is the pooled workspace of Contract: the counting-sort
// member lists (start/memb) and the stamped coarse-neighbor dedup table
// (stamp/slot). The dedup table is epoch-stamped with an int64 base
// that advances by coarseN per acquisition: coarse vertex co is "seen
// during cu's sweep" iff stamp[co] == base+cu, so neither acquisition nor
// the per-cu sweeps ever pay an O(coarseN) wipe. Parallel contraction
// acquires one workspace per worker (each worker needs a private dedup
// table); only the first worker sizes member lists (memberLists).
type quotientScratch struct {
	stamp []int64 // dedup: seen iff stamp[co] == base+cu
	base  int64
	span  int64 // stamp range of the current acquisition (its coarseN)
	slot  []int32
	start []int32
	memb  []int32
}

var quotientPool = sync.Pool{New: func() any { return &quotientScratch{} }}

// acquireQuotient returns a workspace whose dedup table covers coarseN
// coarse vertices, with the dedup epoch advanced past every stale stamp.
func acquireQuotient(coarseN int) *quotientScratch {
	s := quotientPool.Get().(*quotientScratch)
	if s.base > math.MaxInt64-s.span-2*int64(coarseN)-2 {
		clear(s.stamp)
		s.base, s.span = 0, 0
	}
	// Advance past the previous acquisition's stamp range [base, base+span],
	// not the new one's — a smaller coarseN must still clear every stale mark.
	// The span is 2·coarseN because every sweep runs twice per coarse vertex:
	// a counting pass (keys base+2cu) sizes the edge buffers exactly, then
	// the fill pass (keys base+2cu+1) emits — each with private dedup marks.
	s.base += s.span + 1
	s.span = 2 * int64(coarseN)
	if cap(s.stamp) < coarseN {
		s.stamp = make([]int64, coarseN)
	}
	s.stamp = s.stamp[:cap(s.stamp)]
	if cap(s.slot) < coarseN {
		s.slot = make([]int32, coarseN)
	}
	s.slot = s.slot[:cap(s.slot)]
	return s
}

// memberLists sizes the counting-sort arrays of a contraction of n fine
// vertices into coarseN coarse ones: start comes back zeroed (it is a
// counting accumulator), members uninitialized (fully written by the sort).
func (s *quotientScratch) memberLists(coarseN, n int) (start, members []int32) {
	if cap(s.start) < coarseN+1 {
		s.start = make([]int32, coarseN+1)
	}
	s.start = s.start[:coarseN+1]
	clear(s.start)
	if cap(s.memb) < n {
		s.memb = make([]int32, n)
	}
	s.memb = s.memb[:n]
	return s.start, s.memb
}

// releaseQuotient returns the workspace to the pool.
func releaseQuotient(s *quotientScratch) { quotientPool.Put(s) }

// seenCoarseCount reports whether coarse vertex co was marked during cu's
// counting pass, marking it.
func (s *quotientScratch) seenCoarseCount(co, cu int32) bool {
	key := s.base + 2*int64(cu)
	if s.stamp[co] == key {
		return true
	}
	s.stamp[co] = key
	return false
}

// seenCoarse reports whether coarse vertex co was marked during cu's
// fill sweep, marking it.
func (s *quotientScratch) seenCoarse(co, cu int32) bool {
	key := s.base + 2*int64(cu) + 1
	if s.stamp[co] == key {
		return true
	}
	s.stamp[co] = key
	return false
}
