package repro

import (
	"context"
	"fmt"
	"math"
	"sync"

	"repro/internal/coarsen"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/grid"
	"repro/internal/splitter"
)

// Instance is a long-lived handle for repeated queries against one
// evolving graph — the session shape of the drift workload the paper
// motivates (a mesh whose vertex weights change "tremendously depending
// on day-time", re-decomposed continuously), extended to topology churn:
// deltas may also add and remove vertices and edges (mesh refinement,
// region failure, nodes joining and leaving). It owns the per-graph
// state that the one-shot Engine calls recompute on every call:
//
//   - the graph and its canonical SHA-256 content hash, with the
//     topology half of the hash kept as an incrementally patchable digest
//     so a weight drift re-hashes O(N) weights and a topology mutation
//     re-hashes O(|mutation|) edges instead of O(M);
//   - the splitting oracle, built once from the engine's factory;
//   - the current session coloring, which each Repartition resumes from;
//   - the migration history of the session's drift chain.
//
// Methods are safe for concurrent use. Pipeline runs serialize on the
// handle (each resume wants the freshest adopted coloring), but the state
// accessors (Hash, Coloring, Graph, History) and cached-read paths never
// wait behind an in-flight run. Cancellation is transactional:
// a run that returns an error — ctx.Err() included — leaves the Instance
// exactly as it was (graph, hash, coloring, history all unchanged).
//
// The Instance adopts the caller's graph without copying and never
// mutates it: weight drifts swap in fresh weight slices over the shared
// topology. The caller must not mutate the graph after handing it over.
type Instance struct {
	eng *Engine
	opt Options // resolved once: cached splitter, observer, parallelism

	// runMu serializes pipeline runs on the handle; mu guards the session
	// state and is never held across a run, so accessors stay O(1) even
	// while a multi-second pipeline is in flight.
	runMu sync.Mutex

	mu       sync.Mutex
	g        *graph.Graph
	digest   graph.ContentDigest
	hash     string
	coloring []int32 // current session coloring; nil until first success
	history  []Migration

	// hier caches the multilevel hierarchy for the current graph when the
	// session runs the multilevel path: built once by Partition, then
	// maintained across deltas with coarsen.Update (reweighted in O(N) per
	// level, re-matched only around a topology mutation's dirty region).
	// hierBuilt marks a hierarchy produced by a from-scratch Build for the
	// current graph — the only kind Partition itself will consume, so a
	// full Partition stays bit-identical to a fresh one-shot run;
	// Update-derived hierarchies serve only cold Repartition starts (the
	// DESIGN.md §9 reproducibility carve-out for repartition paths).
	hier      *coarsen.Hierarchy
	hierBuilt bool
}

// NewInstance mints a session handle for g under the given options. The
// splitting oracle is built here (from opt.Splitter, or the engine's
// factory, or the default FM-refined BFS) and cached for the session, and
// the graph's content hash is computed once; both amortize across every
// query on the handle.
func (e *Engine) NewInstance(g *graph.Graph, opt Options) (*Instance, error) {
	if opt.K < 1 {
		return nil, fmt.Errorf("repro: K must be ≥ 1, got %d", opt.K)
	}
	opt = e.resolve(g, opt)
	if opt.Splitter == nil {
		opt.Splitter = e.splitterFor(g)
	}
	digest := graph.NewContentDigest(g)
	return &Instance{
		eng:    e,
		opt:    opt,
		g:      g,
		digest: digest,
		hash:   digest.HashWeights(g.Weight),
	}, nil
}

// NewGridInstance mints a session handle for a grid graph bound to the
// paper's exact GridSplit oracle (Section 6) with the canonical exponent
// p = d/(d−1).
func (e *Engine) NewGridInstance(gr *grid.Grid, k int) (*Instance, error) {
	p := gr.P()
	if math.IsInf(p, 1) {
		p = 2
	}
	return e.NewInstance(gr.G, Options{K: k, P: p, Splitter: splitter.NewGrid(gr)})
}

// Hash returns the canonical content hash of the instance's current
// (possibly drifted) graph — its identity in caches and serving layers.
func (in *Instance) Hash() string {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.hash
}

// Graph returns the instance's current graph. It is a read-only view:
// the topology is shared with every snapshot the session has produced,
// and the weights belong to the session. Mutating it corrupts the handle.
func (in *Instance) Graph() *graph.Graph {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.g
}

// Coloring returns a copy of the current session coloring, or nil if no
// run has succeeded yet.
func (in *Instance) Coloring() []int32 {
	in.mu.Lock()
	defer in.mu.Unlock()
	if in.coloring == nil {
		return nil
	}
	return append([]int32(nil), in.coloring...)
}

// History returns a copy of the session's migration history: one entry
// per adopted Repartition, in order.
func (in *Instance) History() []Migration {
	in.mu.Lock()
	defer in.mu.Unlock()
	return append([]Migration(nil), in.history...)
}

// AdoptColoring seeds the session coloring without running the pipeline —
// the resume path for serving layers that hold a prior result (e.g. in a
// cache) for the instance's current graph. The coloring must be complete
// for the current graph and the instance's K; it is copied, so the caller
// keeps ownership of its slice.
func (in *Instance) AdoptColoring(chi []int32) error {
	in.mu.Lock()
	defer in.mu.Unlock()
	if len(chi) != in.g.N() {
		return fmt.Errorf("repro: coloring length %d != N %d", len(chi), in.g.N())
	}
	if err := graph.CheckColoring(chi, in.opt.K); err != nil {
		return err
	}
	in.coloring = append([]int32(nil), chi...)
	return nil
}

// AdoptHistory seeds the session's migration history without running
// the pipeline — the recovery counterpart of AdoptColoring, for serving
// layers restoring a session from a durable log so History() after a
// restart reports the same drift chain it did before. The slice is
// copied; it replaces any existing history.
func (in *Instance) AdoptHistory(h []Migration) {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.history = append([]Migration(nil), h...)
}

// Partition runs the full pipeline on the instance's current graph and
// adopts the coloring as the new session state. ctx cancels the run; on
// any error the previous session state is kept untouched.
func (in *Instance) Partition(ctx context.Context) (Result, error) {
	in.runMu.Lock()
	defer in.runMu.Unlock()
	in.mu.Lock()
	g := in.g
	hier, hierBuilt := in.hier, in.hierBuilt
	in.mu.Unlock()
	opt := in.opt
	if opt.Multilevel != nil {
		// Build (or reuse) the session hierarchy and hand it to the run.
		// Build here uses the identical CoarsenOptions the in-run
		// construction would, so the result is bit-identical either way;
		// the session just keeps the hierarchy for later deltas.
		if hier == nil || !hierBuilt || hier.Fine != g {
			copt := opt.Multilevel.CoarsenOptions(g, opt.K)
			copt.Parallelism = resolveParallelism(opt.Parallelism)
			var err error
			hier, err = coarsen.Build(ctx, g, copt)
			if err != nil {
				return Result{}, err
			}
			hierBuilt = true
		}
		opt.Hierarchy = hier
	}
	res, err := core.Decompose(ctx, g, opt)
	if err != nil {
		return Result{}, err
	}
	if err := in.eng.audit(g, in.opt, res); err != nil {
		return Result{}, err
	}
	in.mu.Lock()
	// Commit a copy: the caller owns res.Coloring and may mutate it, and
	// the session prior must stay immutable (accessors and resumes rely
	// on it).
	in.coloring = append([]int32(nil), res.Coloring...)
	if opt.Multilevel != nil {
		in.hier, in.hierBuilt = hier, hierBuilt
	}
	in.mu.Unlock()
	return res, nil
}

// Repartition applies a delta — a vertex-weight drift, topology
// mutations (vertices and edges appearing and disappearing), or both —
// and resumes the pipeline from the current session coloring: the
// incremental serving path. A weight-only delta shares the session
// topology (no clone) and re-hashes from the frozen topology digest in
// O(N); a topology delta patches the graph, the digest (O(|mutation|)
// amortized, see graph.ContentDigest.Patch) and the session's multilevel
// hierarchy incrementally, rebinds the splitting oracle to the patched
// graph via the engine's factory (graph-specific oracles supplied at
// NewInstance do not carry across topology changes), and resumes with
// the prior coloring transported onto the survivors — removed vertices
// drop out, inserted ones adopt the lightest adjacent class — refining
// FM/polish work restricted to the mutation's dirty region.
//
// With no prior coloring (no successful run yet) the full pipeline runs
// instead, so a cold handle still answers. On success the instance
// adopts the new graph, hash and coloring, and appends the migration
// versus the prior coloring to the session history (for a topology delta
// every inserted vertex counts as migrated; removed vertices never do).
// On error — cancellation and invalid mutations included — nothing is
// adopted: the prior coloring is never mutated (refines work on private
// copies), and the handle still answers for the pre-delta graph.
func (in *Instance) Repartition(ctx context.Context, d Delta) (Result, error) {
	in.runMu.Lock()
	defer in.runMu.Unlock()
	// Snapshot under mu, run without it: runMu guarantees no other run
	// commits meanwhile, and an interleaved AdoptColoring merely loses to
	// this run's commit (seeding is last-writer-wins by design). Neither
	// slice is mutated in place anywhere, so the snapshot stays coherent.
	in.mu.Lock()
	g, prior, hier := in.g, in.coloring, in.hier
	in.mu.Unlock()
	if d.HasTopology() {
		return in.repartitionTopology(ctx, d, g, prior, hier)
	}
	return in.repartitionWeights(ctx, d, g, prior, hier)
}

// updateHierarchy advances the cached multilevel hierarchy onto g2, or
// returns nil when the session has none to advance. A failed update is
// non-fatal unless it is the run's cancellation: the cache is dropped
// and a later Partition rebuilds from scratch.
func (in *Instance) updateHierarchy(ctx context.Context, hier *coarsen.Hierarchy, g2 *graph.Graph, oldToNew, dirty []int32) (*coarsen.Hierarchy, error) {
	if in.opt.Multilevel == nil || hier == nil {
		return nil, nil
	}
	h2, _, err := coarsen.Update(ctx, hier, g2, oldToNew, dirty, in.opt.Multilevel.CoarsenOptions(g2, in.opt.K))
	if err != nil {
		if ctx.Err() != nil {
			return nil, err
		}
		return nil, nil
	}
	return h2, nil
}

// repartitionWeights is the weight-only Repartition path; see
// Repartition.
func (in *Instance) repartitionWeights(ctx context.Context, d Delta, g *graph.Graph, prior []int32, hier *coarsen.Hierarchy) (Result, error) {
	w2, err := d.Materialize(g)
	if err != nil {
		return Result{}, err
	}
	g2 := g.WithWeights(w2)
	hier2, err := in.updateHierarchy(ctx, hier, g2, nil, nil)
	if err != nil {
		return Result{}, err
	}
	var res Result
	if prior == nil {
		opt := in.opt
		if hier2 != nil {
			opt.Hierarchy = hier2
		}
		res, err = core.Decompose(ctx, g2, opt)
	} else {
		res, err = core.Refine(ctx, g2, in.opt, prior)
	}
	if err != nil {
		return Result{}, err
	}
	if err := in.eng.audit(g2, in.opt, res); err != nil {
		return Result{}, err
	}
	var mig Migration
	if prior != nil {
		mig = MigrationOf(g2, prior, res.Coloring)
	}
	in.mu.Lock()
	in.g = g2
	in.hash = in.digest.HashWeights(w2)
	// A copy, for the same reason as in Partition: the caller owns the
	// returned slice.
	in.coloring = append([]int32(nil), res.Coloring...)
	in.history = append(in.history, mig)
	// The reweighted hierarchy is Update-derived (fresh matching under the
	// drifted weight cap could differ), so it serves repartitions only.
	in.hier, in.hierBuilt = hier2, false
	in.mu.Unlock()
	return res, nil
}

// repartitionTopology is the topology-mutating Repartition path; see
// Repartition.
func (in *Instance) repartitionTopology(ctx context.Context, d Delta, g *graph.Graph, prior []int32, hier *coarsen.Hierarchy) (Result, error) {
	ap, err := d.Apply(g)
	if err != nil {
		return Result{}, err
	}
	g2 := ap.Graph
	opt2 := in.opt
	opt2.Splitter = in.eng.splitterFor(g2)
	hier2, err := in.updateHierarchy(ctx, hier, g2, ap.Topo.OldToNew, ap.Topo.Dirty)
	if err != nil {
		return Result{}, err
	}
	var res Result
	if prior == nil {
		if hier2 != nil {
			opt2.Hierarchy = hier2
		}
		res, err = core.Decompose(ctx, g2, opt2)
	} else {
		seed := seedAcross(g2, ap.Topo, prior, opt2.K)
		res, err = core.RefineLocal(ctx, g2, opt2, seed, ap.Dirty)
	}
	if err != nil {
		return Result{}, err
	}
	if err := in.eng.audit(g2, opt2, res); err != nil {
		return Result{}, err
	}
	var mig Migration
	if prior != nil {
		mig = MigrationAcross(g2, ap.Topo.OldToNew, prior, res.Coloring)
	}
	in.mu.Lock()
	in.g = g2
	in.digest = in.digest.Patch(ap.Topo)
	in.hash = in.digest.HashWeights(g2.Weight)
	in.opt.Splitter = opt2.Splitter
	in.coloring = append([]int32(nil), res.Coloring...)
	in.history = append(in.history, mig)
	in.hier, in.hierBuilt = hier2, false
	in.mu.Unlock()
	return res, nil
}

// seedAcross transports a prior coloring of the base graph onto the
// patched graph: survivors keep their class, and inserted vertices
// (ascending id) adopt the lightest class among their already-colored
// neighbors — lightest class overall when isolated — so the seed starts
// both complete and as balanced as a local rule can make it before
// RefineLocal re-certifies the Definition 1 window globally.
func seedAcross(g2 *graph.Graph, p *graph.TopologyPatch, prior []int32, k int) []int32 {
	seed := make([]int32, g2.N())
	for i := range seed {
		seed[i] = -1
	}
	cw := make([]float64, k)
	for ov, nv := range p.OldToNew {
		if nv >= 0 {
			c := prior[ov]
			seed[nv] = c
			cw[c] += g2.Weight[nv]
		}
	}
	for v := int32(p.Survivors); int(v) < g2.N(); v++ {
		best := int32(-1)
		bw := math.Inf(1)
		for _, o := range g2.Neighbors(v) {
			if c := seed[o]; c >= 0 && cw[c] < bw {
				best, bw = c, cw[c]
			}
		}
		if best < 0 {
			best = 0
			for c := int32(1); int(c) < k; c++ {
				if cw[c] < cw[best] {
					best = c
				}
			}
		}
		seed[v] = best
		cw[best] += g2.Weight[v]
	}
	return seed
}
