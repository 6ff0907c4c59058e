// Package coarsen builds deterministic multilevel hierarchies by
// heavy-edge matching contraction — the preprocessing half of the
// multilevel (coarsen → solve → project → refine) decomposition path.
//
// Each level matches vertices to their heaviest-cost unmatched neighbor
// (ties toward the smallest id, vertices visited in ascending id, so the
// hierarchy is a pure function of the graph) and contracts matched pairs
// via graph.Contract. Heavy edges disappear inside coarse vertices, which
// is what keeps the boundary cost of a coloring solved on the coarse proxy
// close to one solved directly: the edges that survive to be cut are the
// cheap ones. A weight cap keeps coarse vertices small enough that the
// strict-balance window of Definition 1 stays reachable at the coarsest
// level.
//
// Coarsening stops at a vertex floor, a level cap, or when matching stalls
// (a level that shrinks less than the progress factor is discarded).
// Construction is cancellable between levels and inside the matching
// sweeps; a cancelled Build returns ctx.Err() and no hierarchy.
package coarsen

import (
	"context"

	"repro/internal/graph"
)

// Options tunes hierarchy construction. Zero values select the documented
// defaults.
type Options struct {
	// MinVertices stops coarsening once the current level has at most this
	// many vertices (default 1024). The driver raises it to keep several
	// coarse vertices per part, so the coarsest solve is never degenerate.
	MinVertices int
	// MaxLevels caps the hierarchy depth (default 24 — enough to take any
	// int32-indexable graph to the floor at the guaranteed shrink rate).
	MaxLevels int
	// MaxWeight, when positive, forbids matches whose merged vertex weight
	// would exceed it. 0 disables the cap.
	MaxWeight float64
	// Parallelism bounds the worker goroutines of the contraction sweep
	// (graph.ContractPar); 0 or 1 runs fully sequentially with no
	// goroutines. Matching is always the sequential ascending-id sweep.
	// The hierarchy is bit-identical at every setting: the contraction
	// workers only fill disjoint per-chunk windows whose layout the
	// sequential count fixes (DESIGN.md §14).
	Parallelism int
}

// minShrink is the progress guard: a matching sweep that leaves more than
// this fraction of the vertices (degenerate graphs: stars already
// contracted, weight caps binding everywhere) ends the hierarchy rather
// than stacking near-identical levels.
const minShrink = 0.9

// checkEvery is the cancellation polling stride of the matching sweep:
// every power-of-two-minus-one mask keeps the check branch-predictable
// while bounding the uncancellable stretch to a few thousand vertices.
const checkEvery = 1<<13 - 1

func (o Options) withDefaults() Options {
	if o.MinVertices <= 0 {
		o.MinVertices = 1024
	}
	if o.MaxLevels <= 0 {
		o.MaxLevels = 24
	}
	return o
}

// Hierarchy is a chain of contractions: Levels[0] contracts Fine, and
// Levels[i] contracts Levels[i-1].Coarse. An empty Levels means the fine
// graph was already at or below the coarsening floor.
type Hierarchy struct {
	Fine   *graph.Graph
	Levels []*graph.Contraction
	// Stamps fingerprint each level's matching decision (the assignment
	// array): Stamps[i] is equal across two hierarchies exactly when level
	// i groups the same vertices the same way. Update preserves a level's
	// stamp whenever the mutation's dirty region never reached its matched
	// pairs — the cheap "is this level still the one I solved?" check for
	// callers caching per-level state.
	Stamps []uint64
}

// stampOf fingerprints a level's assignment with FNV-1a.
func stampOf(assign []int32, coarseN int) uint64 {
	h := uint64(14695981039346656037)
	mix := func(x uint64) {
		h ^= x
		h *= 1099511628211
	}
	mix(uint64(coarseN))
	for _, a := range assign {
		mix(uint64(uint32(a)))
	}
	return h
}

// Coarsest returns the deepest graph of the hierarchy (Fine when no level
// was built).
func (h *Hierarchy) Coarsest() *graph.Graph {
	if len(h.Levels) == 0 {
		return h.Fine
	}
	return h.Levels[len(h.Levels)-1].Coarse
}

// Build constructs the hierarchy for g under opt. ctx cancels construction
// between levels and inside each matching sweep; a cancelled Build returns
// ctx.Err(). The matching and contraction workspaces are drawn once from
// the pooled graph scratch and reused across every level, so a Build
// allocates only what escapes into the hierarchy itself.
func Build(ctx context.Context, g *graph.Graph, opt Options) (*Hierarchy, error) {
	opt = opt.withDefaults()
	h := &Hierarchy{Fine: g}
	cur := g
	ms := graph.AcquireMatchScratch(g.N())
	defer ms.Release()
	for len(h.Levels) < opt.MaxLevels && cur.N() > opt.MinVertices {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		assign, coarseN, err := heavyEdgeMatch(ctx, cur, opt.MaxWeight, ms)
		if err != nil {
			return nil, err
		}
		if float64(coarseN) > minShrink*float64(cur.N()) {
			break
		}
		con, err := graph.ContractPar(cur, assign, coarseN, opt.Parallelism)
		if err != nil {
			return nil, err
		}
		h.Levels = append(h.Levels, con)
		h.Stamps = append(h.Stamps, stampOf(assign, coarseN))
		cur = con.Coarse
	}
	return h, nil
}

// heavyEdgeMatch computes one level's assignment: visiting vertices in
// ascending id, each unmatched vertex pairs with its unmatched neighbor of
// maximum edge cost (ties toward the smallest neighbor id) whose merged
// weight respects the cap, or stays a singleton. Coarse ids are issued in
// discovery order, so the assignment is deterministic. The returned slice
// aliases ms and is valid until the next call with the same workspace.
func heavyEdgeMatch(ctx context.Context, g *graph.Graph, maxWeight float64, ms *graph.MatchScratch) ([]int32, int, error) {
	n := g.N()
	assign := ms.Assign[:n]
	for i := range assign {
		assign[i] = -1
	}
	next := int32(0)
	for v := int32(0); int(v) < n; v++ {
		if v&checkEvery == 0 {
			if err := ctx.Err(); err != nil {
				return nil, 0, err
			}
		}
		if assign[v] >= 0 {
			continue
		}
		best := scanBestMatch(g, assign, v, maxWeight)
		assign[v] = next
		if best >= 0 {
			assign[best] = next
		}
		next++
	}
	return assign, int(next), nil
}

// scanBestMatch is the sequential candidate scan: v's unmatched neighbor
// of maximum edge cost (ties toward the smallest id) whose merged weight
// respects the cap, or −1.
func scanBestMatch(g *graph.Graph, assign []int32, v int32, maxWeight float64) int32 {
	best := int32(-1)
	bestCost := -1.0
	nb := g.Neighbors(v)
	for i, e := range g.IncidentEdges(v) {
		o := nb[i]
		if assign[o] >= 0 {
			continue
		}
		if maxWeight > 0 && g.Weight[v]+g.Weight[o] > maxWeight {
			continue
		}
		if c := g.Cost[e]; c > bestCost || (c == bestCost && (best < 0 || o < best)) {
			best, bestCost = o, c
		}
	}
	return best
}
