package splitter

import (
	"context"
	"sync"
	"sync/atomic"

	"repro/internal/graph"
)

// Refined wraps an inner splitter with Fiduccia–Mattheyses-style local
// refinement: single-vertex moves across the cut of G[W] that strictly
// decrease boundary cost while preserving the Definition 3 weight window.
// Refinement never invalidates the oracle contract — it only improves the
// constant in front of ‖c|W‖_p in practice.
//
// Refined is safe for concurrent Split calls (the Splitter concurrency
// contract): each call acquires its own pooled workspace, the struct
// fields are read-only after construction, and the inner splitter must
// itself honor the contract (all in-tree ones do).
type Refined struct {
	G     *graph.Graph
	Inner Splitter
	// Passes bounds the number of full improvement passes (default 4).
	Passes int
	// Par bounds the worker goroutines of the per-move gain scan; 0 or 1
	// scans sequentially. The selected move is bit-identical at every
	// setting: the chunked scan merges per-chunk argmax candidates in
	// chunk order under the same strictly-greater rule the sequential
	// scan applies, so the first-best-in-W-order vertex wins either way
	// (DESIGN.md §14). The core pipeline sets this to the run's resolved
	// Parallelism when it mints default oracles.
	Par int
}

// NewRefined wraps inner with FM refinement on graph g.
func NewRefined(g *graph.Graph, inner Splitter) *Refined {
	return &Refined{G: g, Inner: inner, Passes: 4}
}

// Split implements Splitter. A done ctx short-circuits to nil before the
// inner oracle runs, and skips the refinement passes if cancellation lands
// between the inner call and the FM loop.
func (r *Refined) Split(ctx context.Context, W []int32, w []float64, target float64) []int32 {
	U := r.Inner.Split(ctx, W, w, target)
	if U == nil || ctx.Err() != nil {
		return nil
	}
	passes := r.Passes
	if passes <= 0 {
		passes = 4
	}
	return refine(ctx, r.G, W, U, w, target, passes, r.Par)
}

// fmChunk is the candidate granularity of the parallel gain scan; chunks
// are contiguous ranges of W, merged in W order.
const fmChunk = 4096

// fmParCutoff is the minimum |W| for which fanning one move's gain scan
// across workers pays for the goroutine plumbing.
const fmParCutoff = 1 << 14

// refine greedily applies improving moves. A move flips one vertex of W
// between U and W\U. It is admissible if it strictly decreases the cut cost
// of U inside G[W] and keeps |w(U) − target| ≤ ‖w|W‖∞/2. The move loop is
// the oracle's only super-linear stretch, so it re-checks ctx per move —
// that keeps the pipeline's cancellation latency bounded by one O(|W|)
// scan even on instances where a full refinement pass is slow.
func refine(ctx context.Context, g *graph.Graph, W, U []int32, w []float64, target float64, passes, par int) []int32 {
	fs := acquireFM(g.N())
	defer releaseFM(fs)
	for _, v := range W {
		fs.markW(v)
	}
	total, maxw := 0.0, 0.0
	for _, v := range W {
		total += w[v]
		if w[v] > maxw {
			maxw = w[v]
		}
	}
	if target < 0 {
		target = 0
	}
	if target > total {
		target = total
	}
	weightU := 0.0
	for _, v := range U {
		fs.setU(v, true)
		weightU += w[v]
	}
	window := maxw/2 + 1e-12*(total+1)

	// gain(v): cut-cost decrease from flipping v (within G[W]). Reads only
	// the membership stamps, which are frozen during a scan, so concurrent
	// gain evaluations are race-free.
	gain := func(v int32) float64 {
		sameSide, otherSide := 0.0, 0.0
		vu := fs.inU(v)
		nb := g.Neighbors(v)
		for i, e := range g.IncidentEdges(v) {
			o := nb[i]
			if !fs.inW(o) {
				continue
			}
			if fs.inU(o) == vu {
				sameSide += g.Cost[e]
			} else {
				otherSide += g.Cost[e]
			}
		}
		return otherSide - sameSide
	}
	feasible := func(v int32) bool {
		nw := weightU
		if fs.inU(v) {
			nw -= w[v]
		} else {
			nw += w[v]
		}
		d := nw - target
		if d < 0 {
			d = -d
		}
		return d <= window
	}
	// scan finds the best admissible move in W[lo:hi]: the unmoved vertex
	// of maximum gain among those whose flip stays inside the window,
	// admitting only strict improvements over the floor. The
	// strictly-greater comparison makes the earliest occurrence of the
	// maximum win, in W order.
	scan := func(lo, hi int) (int32, float64) {
		var best int32 = -1
		bestGain := 1e-12
		for _, v := range W[lo:hi] {
			if fs.isMoved(v) {
				continue
			}
			if gv := gain(v); gv > bestGain && feasible(v) {
				best, bestGain = v, gv
			}
		}
		return best, bestGain
	}
	// bestMove is one move's candidate selection: the sequential scan, or
	// the chunked parallel scan whose in-order merge under the identical
	// strictly-greater rule reproduces the sequential winner bit-for-bit.
	bestMove := func() int32 {
		if par <= 1 || len(W) < fmParCutoff {
			v, _ := scan(0, len(W))
			return v
		}
		nChunks := (len(W) + fmChunk - 1) / fmChunk
		type cand struct {
			v    int32
			gain float64
		}
		cands := make([]cand, nChunks)
		var next int64
		work := func() {
			for {
				i := int(atomic.AddInt64(&next, 1)) - 1
				if i >= nChunks {
					return
				}
				lo := i * fmChunk
				hi := lo + fmChunk
				if hi > len(W) {
					hi = len(W)
				}
				v, gv := scan(lo, hi)
				cands[i] = cand{v: v, gain: gv}
			}
		}
		workers := par
		if workers > nChunks {
			workers = nChunks
		}
		var wg sync.WaitGroup
		for i := 1; i < workers; i++ {
			wg.Add(1)
			//repro:nondeterministic-ok scan workers write disjoint cands slots; the merge walks them in chunk order under the strictly-greater rule — DESIGN.md §14
			go func() {
				defer wg.Done()
				work()
			}()
		}
		work()
		wg.Wait()
		var best int32 = -1
		bestGain := 1e-12
		for _, c := range cands {
			if c.v >= 0 && c.gain > bestGain {
				best, bestGain = c.v, c.gain
			}
		}
		return best
	}

	for pass := 0; pass < passes; pass++ {
		improved := false
		fs.resetMoved(W)
		for {
			if ctx.Err() != nil {
				return nil
			}
			best := bestMove()
			if best < 0 {
				break
			}
			if fs.inU(best) {
				weightU -= w[best]
			} else {
				weightU += w[best]
			}
			fs.setU(best, !fs.inU(best))
			fs.markMoved(best)
			improved = true
		}
		if !improved {
			break
		}
	}

	out := make([]int32, 0, len(U))
	for _, v := range W {
		if fs.inU(v) {
			out = append(out, v)
		}
	}
	return out
}
