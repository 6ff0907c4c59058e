package core

// This file is the composable shape of the decomposition pipeline. The
// paper's algorithm is a fixed sequence of phases (Proposition 7 → 11 → 12
// plus the engineering polish pass); production callers need to compose
// those phases differently — resume from a prior coloring, or wrap the
// whole sequence in a multilevel coarsen → solve → project → refine scheme
// — without re-wiring the invariants every time. Stage is one phase,
// Pipeline drives a sequence of them with uniform instrumentation
// (Observer enter/leave events, Diagnostics durations, cancellation
// checkpoints between stages) and the shared postlude every entry point
// must run: stats, the chunked-greedy strictness backstop, the
// cancellation-wins rule, and the structural coloring check.
//
// Decompose and Refine are now thin assemblies over this driver
// (DecomposePipeline, RefinePipeline); engine options choose between them
// and select the multilevel path by setting Options.Multilevel.

import (
	"context"
	"fmt"
	"time"

	"repro/internal/graph"
)

// Stage is one composable phase of the decomposition pipeline. A Stage
// transforms the working coloring under the shared pipeline context; the
// driver brackets every Run with Observer StageEnter/StageLeave events and
// records the wall time into the run's Diagnostics, so implementations
// contain algorithm only, no instrumentation.
//
// Contract: Run receives the working coloring (nil at the head of a
// producing pipeline, a complete coloring mid-pipeline) and returns its
// replacement. A stage must treat the received slice as its own (the
// driver never aliases it to caller state) and must poll the context's
// cancellation checkpoints (ctx.interrupted via the shared helpers) in any
// long loop; returning early with a partial coloring is fine — the driver
// discards the coloring of a cancelled run. A non-nil error aborts the
// pipeline immediately.
type Stage interface {
	// Name identifies the stage in Observer callbacks and Diagnostics.
	Name() StageName
	// Run executes the stage's transformation.
	Run(c *ctx, chi []int32) ([]int32, error)
}

// groupStage is a Stage that expands into a dynamically chosen
// sub-sequence instead of running an instrumented body of its own: the
// driver emits no events for the group itself, only for the stages it
// expands to. This is how RefinePipeline skips the rebalancing stages
// when the prior coloring is still strict — matching the documented
// "strict priors skip to polish with zero oracle calls" behavior, where
// no almoststrict/strictpack events fire at all.
type groupStage interface {
	Stage
	expand(c *ctx, chi []int32) []Stage
}

// Pipeline drives a stage sequence over one graph. Build one with
// NewPipeline (or the DecomposePipeline / RefinePipeline assemblies) and
// reuse it freely: a Pipeline is immutable and safe for concurrent Runs.
type Pipeline struct {
	stages []Stage
}

// NewPipeline builds a pipeline from the given stages, run in order.
func NewPipeline(stages ...Stage) *Pipeline {
	return &Pipeline{stages: append([]Stage(nil), stages...)}
}

// DecomposePipeline assembles the stage sequence a Decompose run executes
// under opt: the direct four-stage path (Proposition 7 → 11 → 12 →
// polish), or the multilevel path (coarsen → solve coarsest → project →
// refine per level) when opt.Multilevel is set. Per-stage ablations
// (SkipShrink, SkipPolish, …) are honored inside the stages, so the
// assembly is the same for every option combination of a path.
func DecomposePipeline(opt Options) *Pipeline {
	if opt.Multilevel != nil {
		return NewPipeline(MultilevelStage())
	}
	return NewPipeline(MultiBalanceStage(), AlmostStrictStage(), StrictPackStage(), PolishStage())
}

// RefinePipeline assembles the resume path: the rebalancing stages
// (Proposition 11 → 12) run only when the prior coloring is no longer
// strictly balanced under the current weights, then polish. A strict
// prior therefore skips to polish with zero oracle calls.
func RefinePipeline(opt Options) *Pipeline {
	return NewPipeline(UnlessStrict(AlmostStrictStage(), StrictPackStage()), PolishStage())
}

// RefineLocalPipeline assembles the dirty-region resume path behind
// RefineLocal: the same strictness-guarded rebalancing stages, but polish
// sweeps only the dirty region's closed neighborhood.
func RefineLocalPipeline(opt Options, dirty []int32) *Pipeline {
	return NewPipeline(UnlessStrict(AlmostStrictStage(), StrictPackStage()), LocalPolishStage(dirty))
}

// Run executes the pipeline on g under opt. prior seeds the working
// coloring (copied, never mutated); nil starts the pipeline empty, which
// only producing assemblies (DecomposePipeline) accept. The driver owns
// the run-wide concerns: option validation, the oracle call counter, the
// Observer bracketing and Diagnostics of every stage, a cancellation
// checkpoint after each stage, the chunked-greedy strictness backstop,
// and the rule that a cancellation always wins over a computed coloring.
func (p *Pipeline) Run(run context.Context, g *graph.Graph, opt Options, prior []int32) (Result, error) {
	return p.run(run, g, opt, prior, true)
}

// run is Run with Result.Stats optional: the multilevel driver's
// per-level runs pass stats false, skipping the pass over every edge that
// statistics nobody reads would cost.
func (p *Pipeline) run(run context.Context, g *graph.Graph, opt Options, prior []int32, stats bool) (Result, error) {
	if opt.K < 1 {
		return Result{}, fmt.Errorf("core: K must be ≥ 1, got %d", opt.K)
	}
	if g.N() == 0 {
		return Result{Coloring: []int32{}, Stats: graph.ColoringStats{K: opt.K}}, nil
	}
	c, err := newCtx(run, g, opt)
	if err != nil {
		return Result{}, err
	}
	k := opt.K
	var diag Diagnostics
	diag.Parallelism = c.par
	c.diag = &diag
	// The counter is shared by every pool worker that consults the oracle,
	// hence atomic (countingSplitter documents the contract).
	c.sp = countingSplitter{inner: c.sp, calls: &diag.SplitterCalls, obs: c.obs}
	start := time.Now() //repro:nondeterministic-ok run timing feeds Diagnostics.Total only, never the coloring — DESIGN.md §13

	var chi []int32
	if prior != nil {
		// A private copy from the start: stages own the working coloring,
		// and the caller's prior must never be mutated.
		chi = append([]int32(nil), prior...)
	}
	if chi, err = c.runStages(p.stages, chi); err != nil {
		return Result{}, err
	}

	res := Result{Coloring: chi}
	if !graph.IsStrictlyBalanced(g, chi, k) {
		// Degenerate inputs (e.g. wildly heavy vertices) can defeat the
		// practical constants; the chunked-greedy backstop is always strict.
		chi = c.chunkedGreedy(chi, k)
		res.Coloring = chi
		res.UsedFallback = true
	}
	// A cancellation that lands after the stage checkpoints must still win
	// over the assembled result: the caller's context is dead, and the
	// backstop may have run on a half-finished coloring.
	if err := c.run.Err(); err != nil {
		return Result{}, err
	}
	if err := graph.CheckColoring(chi, k); err != nil {
		return Result{}, fmt.Errorf("core: internal error: %w", err)
	}
	if stats {
		res.Stats = graph.Stats(g, chi, k)
	}
	diag.Total = time.Since(start) //repro:nondeterministic-ok run timing feeds Diagnostics.Total only, never the coloring — DESIGN.md §13
	res.Diag = diag
	return res, nil
}

// runStages executes a stage sequence with per-stage instrumentation and
// cancellation checkpoints, expanding groups in place.
func (c *ctx) runStages(stages []Stage, chi []int32) ([]int32, error) {
	var err error
	for _, st := range stages {
		if grp, ok := st.(groupStage); ok {
			if chi, err = c.runStages(grp.expand(c, chi), chi); err != nil {
				return nil, err
			}
			continue
		}
		if chi, err = c.runStage(st, chi); err != nil {
			return nil, err
		}
		c.checked = nil // the stage may have changed the coloring
		if err := c.run.Err(); err != nil {
			return nil, err
		}
	}
	return chi, nil
}

// runStage brackets one stage body with the Observer events and the
// Diagnostics duration accounting.
func (c *ctx) runStage(st Stage, chi []int32) ([]int32, error) {
	var out []int32
	var err error
	c.stageWindow(st.Name(), func() { out, err = st.Run(c, chi) })
	return out, err
}

// stageWindow runs body inside a StageEnter/StageLeave bracket, recording
// the wall time into the run's Diagnostics. The leave fires from a defer,
// so the pair balances on every path — normal completion, error return,
// cancellation, and panic. Serving layers key in-flight metrics windows
// on the pair, which is why the stagepair analyzer (DESIGN.md §13)
// insists on exactly this shape.
func (c *ctx) stageWindow(name StageName, body func()) {
	// The wall-clock reads below feed Diagnostics durations and Observer
	// timings only; they never influence the coloring (DESIGN.md §13
	// audits the carve-out).
	mark := time.Now() //repro:nondeterministic-ok stage timing feeds Diagnostics only, never the coloring — DESIGN.md §13
	c.stageEnter(name)
	defer func() {
		took := time.Since(mark) //repro:nondeterministic-ok stage timing feeds Diagnostics only, never the coloring — DESIGN.md §13
		if c.diag != nil {
			c.diag.record(name, took)
		}
		c.stageLeave(name, took)
	}()
	body()
}

// ---- the classic stages ----

// multiBalanceStage is Proposition 7 (or Lemma 6 under the
// SkipBoundaryBalance ablation): the divide-and-conquer producing the
// weakly balanced coloring from scratch. It ignores any incoming coloring.
type multiBalanceStage struct{}

// MultiBalanceStage returns the Proposition 7 producing stage.
func MultiBalanceStage() Stage { return multiBalanceStage{} }

func (multiBalanceStage) Name() StageName { return StageMultiBalance }

func (multiBalanceStage) Run(c *ctx, _ []int32) ([]int32, error) {
	user := append([][]float64{c.g.Weight}, c.opt.Measures...)
	if c.opt.SkipBoundaryBalance {
		ms := append([][]float64{c.splittingCost()}, user...)
		return c.multiBalanced(c.opt.K, ms), nil
	}
	return c.minMaxBalanced(c.opt.K, user), nil
}

// almostStrictStage is Proposition 11: shrink (or direct rebalancing) to
// an almost strictly balanced coloring. The SkipShrink ablation turns the
// body into a pass-through (the stage events still fire, matching the
// historical behavior the diagnostics fields document).
type almostStrictStage struct{}

// AlmostStrictStage returns the Proposition 11 stage.
func AlmostStrictStage() Stage { return almostStrictStage{} }

func (almostStrictStage) Name() StageName { return StageAlmostStrict }

func (almostStrictStage) Run(c *ctx, chi []int32) ([]int32, error) {
	if c.opt.SkipShrink {
		return chi, nil
	}
	return c.almostStrict(chi, c.opt.K, c.opt.PaperShrink), nil
}

// strictPackStage is Proposition 12 (BinPack2): almost strict → strict.
type strictPackStage struct{}

// StrictPackStage returns the Proposition 12 stage.
func StrictPackStage() Stage { return strictPackStage{} }

func (strictPackStage) Name() StageName { return StageStrictPack }

func (strictPackStage) Run(c *ctx, chi []int32) ([]int32, error) {
	return c.binPack2(chi, c.opt.K), nil
}

// polishStage is the strictness-preserving boundary polish pass. It runs
// only on a strictly balanced coloring (polish moves are feasibility-
// checked against the Definition 1 window, which is meaningless otherwise)
// and honors the SkipPolish ablation (ctx.polishable).
type polishStage struct{}

// PolishStage returns the boundary polish stage.
func PolishStage() Stage { return polishStage{} }

func (polishStage) Name() StageName { return StagePolish }

func (polishStage) Run(c *ctx, chi []int32) ([]int32, error) {
	if b, ok := c.polishable(chi); ok {
		return c.polish(chi, b, 3), nil
	}
	return chi, nil
}

// localPolishStage is the localized variant of the polish pass: the
// candidate sweep is restricted to the closed neighborhood of the dirty
// vertex set while balance feasibility stays global. It is the polish
// half of the dirty-region Refine contract (RefineLocal): a topology
// mutation touches a bounded region, so only that region's border can
// have gained boundary cost worth polishing away. It reports as
// StagePolish, so observers and diagnostics see the usual pipeline shape.
type localPolishStage struct {
	dirty []int32
}

// LocalPolishStage returns a polish stage restricted to the closed
// neighborhood of dirty (vertex ids of the stage's graph).
func LocalPolishStage(dirty []int32) Stage {
	return localPolishStage{dirty: append([]int32(nil), dirty...)}
}

func (localPolishStage) Name() StageName { return StagePolish }

func (s localPolishStage) Run(c *ctx, chi []int32) ([]int32, error) {
	if b, ok := c.polishable(chi); ok {
		return c.polishLocal(chi, b, 3, s.dirty), nil
	}
	return chi, nil
}

// unlessStrict is the RefinePipeline group: its inner stages run only
// when the working coloring is not strictly balanced. The strictness
// predicate is evaluated once, at expansion — when the prior is broken,
// every inner stage runs, even if an early one already restores
// strictness (Proposition 12 must still certify the window). A strict
// verdict's check stays on the ctx for the polish stage that follows.
type unlessStrict struct {
	inner []Stage
}

// UnlessStrict wraps stages so they run only when the working coloring is
// not strictly balanced at the time the group is reached.
func UnlessStrict(stages ...Stage) Stage {
	return unlessStrict{inner: append([]Stage(nil), stages...)}
}

func (unlessStrict) Name() StageName { return "unless-strict" }

// Run is never called: the driver expands groups instead.
func (u unlessStrict) Run(_ *ctx, chi []int32) ([]int32, error) {
	return chi, fmt.Errorf("core: group stage %q cannot run directly", u.Name())
}

func (u unlessStrict) expand(c *ctx, chi []int32) []Stage {
	if chi != nil {
		if b := graph.CheckBalance(c.g, chi, c.opt.K); b.StrictlyBalanced {
			c.checked = &b
			return nil
		}
	}
	return u.inner
}
