package coarsen

// This file is the incremental half of the package: deriving a mutated
// fine graph's hierarchy from an existing one instead of re-coarsening
// from scratch. The matching decisions of a level are reused for every
// group the mutation's dirty region never touched — only groups with a
// dirty, removed or inserted member are dissolved and rematched among
// themselves — so matched pairs stay stable away from the churn, the
// per-level Stamps of untouched levels stay valid, and the coarse proxy a
// warm session solves on does not jump around under a localized mutation.
// Each level's contraction is still re-run (costs and weights below it
// changed), which keeps Update O(N + M) per level in array work, but with
// no matching sweeps outside the dirty region's image.

import (
	"context"
	"fmt"

	"repro/internal/graph"
)

// UpdateStats reports how much of the old hierarchy an Update reused.
type UpdateStats struct {
	// Levels is the number of levels in the updated hierarchy (always the
	// old depth; Update never extends or truncates the chain).
	Levels int
	// ReusedGroups counts matched groups adopted unchanged across all
	// levels; Rematched counts vertices that went through a fresh matching
	// sweep because their group was dissolved.
	ReusedGroups int
	Rematched    int
	// StampsKept counts levels whose matching fingerprint came out equal
	// to the old hierarchy's (always Levels for a weight-only update).
	StampsKept int
}

// Update derives the hierarchy of fine — a mutated successor of h.Fine —
// from h. oldToNew maps h.Fine's ids to fine's ids with −1 for removed
// vertices (nil means the identity: a pure reweighting, which reuses
// every level as a weight view in O(N) per level). dirty lists fine's
// structurally changed vertices (patched ids); the matched groups they or
// their removed/inserted neighbors belonged to are dissolved and
// rematched, everything else keeps its grouping. opt supplies the same
// knobs the original Build ran with (MaxWeight caps only the fresh
// rematches; grandfathered groups keep their pairing even if the drifted
// weights now exceed the cap — refine re-certifies balance regardless).
//
// The updated hierarchy shares no mutable state with h, so a caller can
// commit it transactionally and roll back to h on error. ctx cancels
// between levels; a cancelled Update returns ctx.Err().
func Update(ctx context.Context, h *Hierarchy, fine *graph.Graph, oldToNew []int32, dirty []int32, opt Options) (*Hierarchy, UpdateStats, error) {
	opt = opt.withDefaults()
	var stats UpdateStats
	stats.Levels = len(h.Levels)
	out := &Hierarchy{Fine: fine}
	if len(h.Levels) == 0 {
		return out, stats, nil
	}

	// Pure reweighting: every level keeps its topology and assignment;
	// only the aggregated weights change. O(N) per level.
	if oldToNew == nil && len(dirty) == 0 {
		if fine.N() != h.Fine.N() {
			return nil, stats, fmt.Errorf("coarsen: reweight update changed N (%d != %d)", fine.N(), h.Fine.N())
		}
		w := fine.Weight
		for i, con := range h.Levels {
			w = con.AggregateWeights(w)
			out.Levels = append(out.Levels, &graph.Contraction{
				Coarse: con.Coarse.WithWeights(w),
				Map:    con.Map,
			})
			out.Stamps = append(out.Stamps, h.Stamps[i])
		}
		stats.ReusedGroups = -1 // not counted on the reweight path
		stats.StampsKept = len(h.Levels)
		return out, stats, nil
	}
	if oldToNew == nil {
		return nil, stats, fmt.Errorf("coarsen: dirty vertices without an id mapping")
	}
	if len(oldToNew) != h.Fine.N() {
		return nil, stats, fmt.Errorf("coarsen: oldToNew length %d != old N %d", len(oldToNew), h.Fine.N())
	}

	cur := fine        // current new graph at this level
	o2n := oldToNew    // old level ids → new level ids
	oldN := h.Fine.N() // old vertex count at this level
	isDirty := make([]bool, cur.N())
	for _, v := range dirty {
		isDirty[v] = true
	}

	for li, con := range h.Levels {
		if err := ctx.Err(); err != nil {
			return nil, stats, err
		}
		newN := cur.N()
		oldAssign := con.Map
		oldCoarseN := con.Coarse.N()

		// Invert the level mapping: new id → old id (−1 for inserted).
		n2o := make([]int32, newN)
		for i := range n2o {
			n2o[i] = -1
		}
		for ov := 0; ov < oldN; ov++ {
			if nv := o2n[ov]; nv >= 0 {
				n2o[nv] = int32(ov)
			}
		}

		// A group survives iff every member survives and none is dirty.
		keep := make([]bool, oldCoarseN)
		for i := range keep {
			keep[i] = true
		}
		for ov := 0; ov < oldN; ov++ {
			nv := o2n[ov]
			if nv < 0 || isDirty[nv] {
				keep[oldAssign[ov]] = false
			}
		}

		// Group member lists of the old assignment (counting sort, like
		// graph.Contract) — needed to adopt a kept group wholesale when its
		// first member is swept.
		start := make([]int32, oldCoarseN+1)
		for _, cu := range oldAssign {
			start[cu+1]++
		}
		for cu := 0; cu < oldCoarseN; cu++ {
			start[cu+1] += start[cu]
		}
		members := make([]int32, oldN)
		fill := make([]int32, oldCoarseN)
		for ov := 0; ov < oldN; ov++ {
			cu := oldAssign[ov]
			members[start[cu]+fill[cu]] = int32(ov)
			fill[cu]++
		}

		// pooled: vertices whose group dissolved (or that are new here).
		pooled := func(nv int32) bool {
			ov := n2o[nv]
			return ov < 0 || !keep[oldAssign[ov]]
		}

		// Sweep ascending new ids, issuing coarse ids in discovery order —
		// the same issuance rule as heavyEdgeMatch, so an update whose
		// rematches reproduce the old pairs yields the identical assignment
		// (and therefore the identical stamp).
		newAssign := make([]int32, newN)
		for i := range newAssign {
			newAssign[i] = -1
		}
		next := int32(0)
		for v := int32(0); int(v) < newN; v++ {
			if v&checkEvery == 0 {
				if err := ctx.Err(); err != nil {
					return nil, stats, err
				}
			}
			if newAssign[v] >= 0 {
				continue
			}
			if ov := n2o[v]; ov >= 0 && keep[oldAssign[ov]] {
				cu := oldAssign[ov]
				for _, m := range members[start[cu]:start[cu+1]] {
					newAssign[o2n[m]] = next
				}
				next++
				stats.ReusedGroups++
				continue
			}
			// Dissolved or inserted: rematch among the pool, heaviest
			// available edge first, respecting the weight cap.
			best := int32(-1)
			bestCost := -1.0
			nb := cur.Neighbors(v)
			for i, e := range cur.IncidentEdges(v) {
				o := nb[i]
				if newAssign[o] >= 0 || !pooled(o) {
					continue
				}
				if opt.MaxWeight > 0 && cur.Weight[v]+cur.Weight[o] > opt.MaxWeight {
					continue
				}
				if c := cur.Cost[e]; c > bestCost || (c == bestCost && (best < 0 || o < best)) {
					best, bestCost = o, c
				}
			}
			newAssign[v] = next
			stats.Rematched++
			if best >= 0 {
				newAssign[best] = next
				stats.Rematched++
			}
			next++
		}

		ncon, err := graph.Contract(cur, newAssign, int(next))
		if err != nil {
			return nil, stats, err
		}
		out.Levels = append(out.Levels, ncon)
		stamp := stampOf(newAssign, int(next))
		out.Stamps = append(out.Stamps, stamp)
		if stamp == h.Stamps[li] {
			stats.StampsKept++
		}

		// Next level's mapping and dirty set: kept groups correspond old →
		// new coarse id; dissolved and all-removed groups have no successor,
		// and the images of pooled or dirty vertices are the next dirty set.
		o2nNext := make([]int32, oldCoarseN)
		for i := range o2nNext {
			o2nNext[i] = -1
		}
		dirtyNext := make([]bool, int(next))
		for v := int32(0); int(v) < newN; v++ {
			ov := n2o[v]
			if ov >= 0 && keep[oldAssign[ov]] {
				o2nNext[oldAssign[ov]] = newAssign[v]
			}
			if isDirty[v] || pooled(v) {
				dirtyNext[newAssign[v]] = true
			}
		}

		cur = ncon.Coarse
		o2n = o2nNext
		oldN = oldCoarseN
		isDirty = dirtyNext
	}
	return out, stats, nil
}
