package core

// This file is the run driver and the stage sequences it drives. The
// paper's algorithm is a fixed sequence — Proposition 7 → 11 → 12 — and
// the repo adds a polish pass after it and a multilevel wrapper around
// it, so the sequences are plain calls in three bodies: decompose,
// refine, and the multilevel driver (ctx.multilevel, multilevel.go),
// which runs decompose on the coarsest graph and refine at every level.
// run is the one place that builds a ctx for them and owns the postlude.

import (
	"context"
	"fmt"
	"time"

	"repro/internal/graph"
)

// run executes body on g under opt. prior seeds the working coloring
// (copied, never mutated); nil hands body a nil coloring, which only
// decompose accepts. Around body, run owns the run-wide concerns: option
// validation, the oracle call counter, the chunked-greedy strictness
// backstop, the rule that a cancellation always wins over a computed
// coloring, and the structural coloring check. stats false skips
// Result.Stats: the multilevel driver's per-level runs discard it, and
// it costs a pass over every edge.
func run(runCtx context.Context, g *graph.Graph, opt Options, prior []int32, stats bool,
	body func(c *ctx, chi []int32) ([]int32, error)) (Result, error) {
	if opt.K < 1 {
		return Result{}, fmt.Errorf("core: K must be ≥ 1, got %d", opt.K)
	}
	if g.N() == 0 {
		return Result{Coloring: []int32{}, Stats: graph.ColoringStats{K: opt.K}}, nil
	}
	c, err := newCtx(runCtx, g, opt)
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
		// A private copy from the start: the stages own the working
		// coloring, and the caller's prior must never be mutated.
		chi = append([]int32(nil), prior...)
	}
	chi, err = body(c, chi)
	if err == nil {
		// The checkpoint after the last stage: a cancelled body may hold
		// a partial coloring the backstop must not see.
		err = c.run.Err()
	}
	if err != nil {
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

// decompose is the producing body behind Decompose: the multilevel
// driver when Options.Multilevel is set, otherwise Proposition 7 (or
// Lemma 6 under the SkipBoundaryBalance ablation) → 11 → 12 → polish.
func decompose(c *ctx, _ []int32) ([]int32, error) {
	var chi []int32
	var err error
	if c.opt.Multilevel != nil {
		c.stageWindow(StageMultilevel, func() { chi, err = c.multilevel() })
		return chi, err
	}
	err = c.step(StageMultiBalance, func() {
		user := append([][]float64{c.g.Weight}, c.opt.Measures...)
		if c.opt.SkipBoundaryBalance {
			chi = c.multiBalanced(c.opt.K, append([][]float64{c.splittingCost()}, user...))
		} else {
			chi = c.minMaxBalanced(c.opt.K, user)
		}
	})
	if err != nil {
		return nil, err
	}
	if chi, err = c.strictBalance(chi); err != nil {
		return nil, err
	}
	c.stageWindow(StagePolish, func() { chi = c.polishStage(chi, nil, nil, false) })
	return chi, nil
}

// refine returns the resume body behind Refine (local false) and
// RefineLocal (local true: polish sweeps only the closed neighborhood of
// dirty, vertex ids of the run's graph). One strictness check decides
// the path. A prior that is no longer strict runs Propositions 11 and 12
// — both, even if the first already restores strictness, since
// Proposition 12 certifies the window — and polish takes a fresh check.
// A strict prior goes straight to polish, which starts from the kept
// check: no oracle call and no π.
func refine(dirty []int32, local bool) func(c *ctx, chi []int32) ([]int32, error) {
	return func(c *ctx, chi []int32) ([]int32, error) {
		b := graph.CheckBalance(c.g, chi, c.opt.K)
		kept := &b
		if !b.StrictlyBalanced {
			var err error
			if chi, err = c.strictBalance(chi); err != nil {
				return nil, err
			}
			kept = nil
		}
		c.stageWindow(StagePolish, func() { chi = c.polishStage(chi, kept, dirty, local) })
		return chi, nil
	}
}

// strictBalance runs Proposition 11 (shrink, or direct rebalancing) and
// then Proposition 12 (BinPack2) on a complete coloring. The SkipShrink
// ablation leaves Proposition 11's stage events firing around a
// pass-through.
func (c *ctx) strictBalance(chi []int32) ([]int32, error) {
	err := c.step(StageAlmostStrict, func() {
		if !c.opt.SkipShrink {
			chi = c.almostStrict(chi, c.opt.K, c.opt.PaperShrink)
		}
	})
	if err != nil {
		return nil, err
	}
	if err := c.step(StageStrictPack, func() { chi = c.binPack2(chi, c.opt.K) }); err != nil {
		return nil, err
	}
	return chi, nil
}

// polishStage is the polish stage body. Polish runs only when SkipPolish
// is off and chi is strictly balanced: its moves are feasibility-checked
// against the Definition 1 window, which is meaningless otherwise. b is
// chi's strictness check when the caller holds one (nil takes a fresh
// one); local restricts the candidate sweep to dirty's closed
// neighborhood while balance feasibility stays global.
func (c *ctx) polishStage(chi []int32, b *graph.Balance, dirty []int32, local bool) []int32 {
	if c.opt.SkipPolish {
		return chi
	}
	if b == nil {
		fresh := graph.CheckBalance(c.g, chi, c.opt.K)
		b = &fresh
	}
	switch {
	case !b.StrictlyBalanced:
		return chi
	case local:
		return c.polishLocal(chi, *b, 3, dirty)
	default:
		return c.polish(chi, *b, 3)
	}
}

// step runs one stage that has another after it: body inside the
// stage's window, then the cancellation checkpoint between stages.
func (c *ctx) step(name StageName, body func()) error {
	c.stageWindow(name, body)
	return c.run.Err()
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
		c.diag.record(name, took)
		c.stageLeave(name, took)
	}()
	body()
}
