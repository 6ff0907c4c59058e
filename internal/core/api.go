package core

import (
	"context"
	"fmt"
	"math"
	"runtime"

	"repro/internal/coarsen"
	"repro/internal/graph"
	"repro/internal/splitter"
)

// Options configures Decompose.
type Options struct {
	// K is the number of parts (colors); must be ≥ 1.
	K int

	// P is the Hölder exponent of the splittability assumption
	// (Definition 3). Defaults to 2; use d/(d−1) on d-dimensional grids.
	P float64

	// Splitter is the splitting-set oracle. Defaults to an FM-refined BFS
	// prefix splitter on the input graph. Custom implementations must be
	// safe for concurrent use (see splitter.Splitter) whenever
	// Parallelism ≠ 1.
	Splitter splitter.Splitter

	// Observer, when non-nil, receives progress callbacks (stage
	// enter/leave, oracle calls, polish rounds) from the run. Callbacks
	// must be cheap and concurrency-safe; see Observer. Like Splitter and
	// Measures it has no wire representation and never influences the
	// computed coloring, so it is excluded from result-cache identity.
	Observer Observer

	// Parallelism bounds the worker pool used by the pipeline's
	// divide-and-conquer stages (and by Engine.Batch at the facade).
	// 0 defaults to runtime.GOMAXPROCS(0); 1 runs fully sequentially,
	// reproducing the single-threaded behavior bit-for-bit; values < 0 are
	// treated as 1. The coloring is deterministic for a given graph and
	// options regardless of this setting — parallelism only changes where
	// the work runs, never which work runs.
	Parallelism int

	// Measures are additional vertex measures to balance alongside the
	// vertex weights (the multi-balanced extension noted in Section 7),
	// each of length N.
	Measures [][]float64

	// Multilevel, when non-nil, selects the multilevel decomposition path:
	// coarsen the graph by heavy-edge matching contraction, solve the
	// coarsest level with the direct pipeline, then project the coloring
	// down the hierarchy, refining at each level. Same strict-balance
	// guarantee, typically a small constant-factor boundary premium, and a
	// large wall-clock win on instances whose oracle calls dominate (the
	// splitting recursion runs on the coarse proxy instead of the full
	// graph). nil selects the direct path. Multilevel is incompatible with
	// Measures (the coarse levels balance weight and π only) and is
	// ignored by Refine, which already starts from a projected-quality
	// prior. See Multilevel for the knobs and their defaults.
	Multilevel *Multilevel

	// Hierarchy, when non-nil and built for the exact graph being
	// decomposed (Hierarchy.Fine must be the same *graph.Graph), supplies
	// the multilevel path's coarsening hierarchy, skipping the in-run
	// Build. Session holders (repro.Instance) use it to amortize
	// coarsening across a drift chain, maintaining the hierarchy with
	// coarsen.Update as the topology mutates. It must have been built with
	// Multilevel.CoarsenOptions for the same K. Like Splitter it has no
	// wire representation; an Updated hierarchy's matchings may differ
	// from a fresh Build's, so results seeded this way fall under the same
	// reproducibility carve-out as every warm-start path (DESIGN.md §9).
	Hierarchy *coarsen.Hierarchy

	// SplitterFactory mints splitting oracles for derived graphs — the
	// coarse levels of the multilevel hierarchy, whose graphs exist only
	// inside the run (Splitter is bound to the input graph and cannot
	// serve them). nil defaults to the FM-refined BFS prefix splitter.
	// The factory must be safe for concurrent use when Parallelism ≠ 1;
	// like Splitter and Observer it has no wire representation, and —
	// because every in-tree factory is deterministic for a given graph —
	// it is excluded from result-cache identity.
	SplitterFactory func(g *graph.Graph) splitter.Splitter

	// SkipBoundaryBalance disables the Proposition 7 boundary-balancing
	// stage (ablation E10a): the coloring is still multi-balanced in
	// weights and π, but only the average boundary cost is controlled.
	SkipBoundaryBalance bool

	// SkipShrink replaces the Proposition 11 stage with nothing (ablation
	// E10b); strictness then rests entirely on BinPack2.
	SkipShrink bool

	// PaperShrink selects the faithful Section 5 shrink-and-conquer
	// recursion for the Proposition 11 stage instead of the default direct
	// surplus-to-deficit rebalancing (both meet the proposition's bound;
	// the recursion's worst-case constants are much larger — E10).
	PaperShrink bool

	// SkipPolish disables the final balance-preserving boundary polish
	// pass (an engineering extension over the paper; every move is
	// feasibility-checked against Definition 1, so the guarantee is
	// unchanged — it only shrinks the constant).
	SkipPolish bool
}

// Result is a strictly balanced k-coloring with its statistics.
type Result struct {
	// Coloring maps each vertex to its color in [0, K).
	Coloring []int32
	// Stats summarizes weights and boundary costs per Definition 1.
	Stats graph.ColoringStats
	// UsedFallback reports that the chunked-greedy backstop had to repair
	// strictness (degenerate inputs only).
	UsedFallback bool

	// Diag reports oracle-call counts and per-stage durations.
	Diag Diagnostics
}

// Decompose computes a strictly balanced k-coloring of g with small
// maximum boundary cost — the algorithmic content of Theorem 4:
//
//	∂ᵏ∞(G, c) = O_p(σ_p · (k^{−1/p}·‖c‖_p + Δ_c)).
//
// The pipeline is Proposition 7 (multi-balanced, min-max boundary) →
// Proposition 11 (almost strictly balanced) → Proposition 12 (strictly
// balanced).
//
// ctx cancels the run: every stage polls it at its checkpoints (oracle
// calls, pool work items, rebalance moves, polish rounds, coarsening
// sweeps), the worker pool drains itself, and Decompose returns ctx.Err()
// instead of a partial Result. Cancellation is cooperative — the longest
// stretch between checkpoints is one splitting-oracle call on the current
// subproblem.
//
// Decompose is the run driver with the decompose body: the multilevel
// path when opt.Multilevel is set, the direct four stages otherwise.
func Decompose(ctx context.Context, g *graph.Graph, opt Options) (Result, error) {
	if opt.Multilevel != nil && len(opt.Measures) > 0 {
		// The coarse levels balance weight and π only; silently dropping a
		// multi-balance request would return a coloring without the
		// property the caller asked for.
		return Result{}, fmt.Errorf("core: Multilevel does not support Measures (coarse levels balance weight only); use the direct path")
	}
	for i, m := range opt.Measures {
		if len(m) != g.N() {
			return Result{}, fmt.Errorf("core: Measures[%d] has length %d, want N = %d", i, len(m), g.N())
		}
	}
	return run(ctx, g, opt, nil, true, decompose)
}

// Refine resumes the pipeline on an existing complete coloring of g — the
// incremental entry behind the serving layer's repartition path. The prior
// coloring (typically computed for a nearby weight field, e.g. before a
// day/night drift) replaces the Proposition 7 divide-and-conquer as the
// starting point:
//
//   - if the prior coloring is still strictly balanced under g's current
//     weights, only the polish pass runs — no oracle calls at all;
//   - otherwise Proposition 11's direct rebalancing moves surplus-sized
//     splitting-set pieces from overweight to underweight classes, and
//     Proposition 12 restores strictness, exactly as in Decompose.
//
// Every stage moves only as much weight as the imbalance demands, so
// vertices keep their prior class wherever the Definition 1 window allows:
// the migration volume between prior and the result tracks the size of the
// weight drift, not the size of the graph. Diagnostics count only the
// resumed stages' oracle calls, making the saving over a fresh Decompose
// observable via SplitterCalls.
// ctx cancels the resumed run exactly as in Decompose: Refine returns
// ctx.Err() and the caller's prior coloring is never adopted or mutated
// (Refine works on a private copy from the start).
//
// Refine is the run driver with the refine body, which guards the
// rebalancing stages behind one strictness check. Options.Multilevel is
// ignored here — the prior coloring already plays the role the multilevel
// path's projection would.
func Refine(ctx context.Context, g *graph.Graph, opt Options, prior []int32) (Result, error) {
	if err := checkPrior("Refine", g, opt, prior); err != nil {
		return Result{}, err
	}
	return run(ctx, g, opt, prior, true, refine(nil, false))
}

// RefineLocal is the dirty-region variant of Refine, the entry point
// behind topology-mutation repartitions: the prior coloring (already
// remapped to g's id space, with removed vertices dropped and inserted
// vertices adopted into a class) seeds the resume, and the final polish
// pass sweeps only the closed neighborhood of the dirty vertex set — the
// region where a mutation can have created new boundary cost. Balance is
// still certified globally: the strictness-guarded rebalancing stages and
// the driver's backstop see the whole graph, so the result carries the
// identical Definition 1 guarantee as Refine, at a cost that tracks
// |dirty| instead of M once the prior is strictly balanced.
func RefineLocal(ctx context.Context, g *graph.Graph, opt Options, prior []int32, dirty []int32) (Result, error) {
	if err := checkPrior("RefineLocal", g, opt, prior); err != nil {
		return Result{}, err
	}
	for _, v := range dirty {
		if v < 0 || int(v) >= g.N() {
			return Result{}, fmt.Errorf("core: dirty vertex %d out of range [0, %d)", v, g.N())
		}
	}
	return run(ctx, g, opt, prior, true, refine(dirty, true))
}

// checkPrior validates the options and prior coloring of a resume entry
// point (Refine, RefineLocal).
func checkPrior(entry string, g *graph.Graph, opt Options, prior []int32) error {
	if opt.K < 1 {
		return fmt.Errorf("core: K must be ≥ 1, got %d", opt.K)
	}
	if len(opt.Measures) > 0 {
		// The resumed stages rebalance vertex weight only; silently
		// dropping a multi-balance request would return a coloring without
		// the property the caller asked for.
		return fmt.Errorf("core: %s does not support Measures (the resumed stages balance weight only); run Decompose", entry)
	}
	if len(prior) != g.N() {
		return fmt.Errorf("core: coloring length %d != N %d", len(prior), g.N())
	}
	return graph.CheckColoring(prior, opt.K)
}

// newCtx validates options and builds the shared pipeline context. A nil
// run context is tolerated (treated as context.Background()) so internal
// callers and tests need no ceremony. The splitting-cost measure π is not
// computed here but on first use (ctx.splittingCost).
func newCtx(run context.Context, g *graph.Graph, opt Options) (*ctx, error) {
	p := opt.P
	if p == 0 {
		p = 2
	}
	if p <= 1 || math.IsNaN(p) {
		return nil, fmt.Errorf("core: P must be > 1, got %v", opt.P)
	}
	par := opt.Parallelism
	if par == 0 {
		par = runtime.GOMAXPROCS(0)
	}
	if par < 1 {
		par = 1
	}
	sp := opt.Splitter
	if sp == nil {
		rf := splitter.NewRefined(g, splitter.NewBFS(g))
		rf.Par = par
		sp = rf
	}
	if run == nil {
		run = context.Background()
	}
	// Stash the resolved values back into the ctx's option copy so stages
	// (and the multilevel driver's per-level inner runs) see exactly what
	// this run uses, not the caller's unresolved zeros.
	opt.P = p
	opt.Splitter = sp
	opt.Parallelism = par
	c := &ctx{
		g:   g,
		sp:  sp,
		p:   p,
		opt: opt,
		par: par,
		run: run,
		obs: opt.Observer,
	}
	// Done() is nil for Background-style contexts, which keeps the
	// interrupted() checkpoint free on un-cancellable runs.
	c.done = run.Done()
	if par > 1 {
		c.sem = make(chan struct{}, par-1)
	}
	return c, nil
}

// TheoremBound returns the Theorem 5 upper-bound shape
// ‖c‖_p/k^{1/p} + ‖c‖∞ (without the σ_p and constant factors), used by the
// experiment harness to normalize measured boundary costs.
func TheoremBound(g *graph.Graph, k int, p float64) float64 {
	if math.IsInf(p, 1) {
		return 2 * g.MaxCost()
	}
	return g.CostNorm(p)/math.Pow(float64(k), 1/p) + g.MaxCost()
}
