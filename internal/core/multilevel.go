package core

// This file is the multilevel (coarsen → solve → project → refine)
// decomposition path: a driver that builds a heavy-edge coarsening
// hierarchy, solves the coarsest level with run(…, decompose), and
// projects the coloring down the hierarchy, resuming with run(…, refine)
// at every level.
//
// Invariants (DESIGN.md §9): the final coloring carries the identical
// Definition 1 strict-balance guarantee as the direct path — projection
// preserves class weights exactly, and each level's Refine re-certifies
// the window against that level's own ‖w‖∞ before polish runs. The
// boundary cost pays a small constant factor for solving on the proxy
// (heavy edges are hidden inside coarse vertices, so the surviving cut
// edges are the cheap ones); the seeded-corpus property test pins the
// documented factor. Cancellation holds everywhere: mid-coarsening, the
// coarsest solve, and every per-level refine all unwind to ctx.Err() with
// no partial Result.

import (
	"repro/internal/coarsen"
	"repro/internal/graph"
	"repro/internal/splitter"
)

// Multilevel configures the multilevel decomposition path (set it as
// Options.Multilevel; the zero value selects every default). The defaults
// are resolved against K, so two runs with equal (graph, K, Multilevel
// fields) always coarsen identically — the property the serving layer's
// cache key relies on.
type Multilevel struct {
	// MinVertices stops coarsening once a level has at most this many
	// vertices. 0 defaults to max(1024, 8·K): at least eight coarse
	// vertices per part, so the coarsest solve has room to balance.
	MinVertices int
	// MaxLevels caps the hierarchy depth. 0 defaults to 24.
	MaxLevels int
}

// resolve applies the documented defaults for a K-part run.
func (m Multilevel) resolve(k int) Multilevel {
	if m.MinVertices <= 0 {
		m.MinVertices = 1024
		if 8*k > m.MinVertices {
			m.MinVertices = 8 * k
		}
	}
	if m.MaxLevels <= 0 {
		m.MaxLevels = 24
	}
	return m
}

// CoarsenOptions resolves the hierarchy-construction knobs a K-part run
// uses for g — the single definition shared by the in-run Build below and
// by session holders (repro.Instance) that prebuild a hierarchy for
// Options.Hierarchy or maintain one across mutations with coarsen.Update.
// The weight cap is half a part's share: the Definition 1 window is
// ±(1−1/k)·‖w‖∞, so letting ‖w‖∞ grow past the average class weight would
// make the coarsest window vacuous.
func (m Multilevel) CoarsenOptions(g *graph.Graph, k int) coarsen.Options {
	r := m.resolve(k)
	return coarsen.Options{
		MinVertices: r.MinVertices,
		MaxLevels:   r.MaxLevels,
		MaxWeight:   g.TotalWeight() / float64(2*k),
	}
}

// defaultSplitterFactory mints the oracle for hierarchy levels when the
// caller provides no Options.SplitterFactory: the FM-refined BFS prefix
// splitter, the same default a direct run gets, with the gain scan fanned
// across the run's worker-pool bound.
func defaultSplitterFactory(par int) func(g *graph.Graph) splitter.Splitter {
	return func(g *graph.Graph) splitter.Splitter {
		rf := splitter.NewRefined(g, splitter.NewBFS(g))
		rf.Par = par
		return rf
	}
}

// multilevel is the driver behind decompose's multilevel branch; see the
// file comment. It runs inside decompose's StageMultilevel window.
func (c *ctx) multilevel() ([]int32, error) {
	ml := c.opt.Multilevel.resolve(c.opt.K)
	factory := c.opt.SplitterFactory
	if factory == nil {
		factory = defaultSplitterFactory(c.par)
	}

	// Hierarchy construction gets its own instrumented window inside the
	// driver's StageMultilevel bracket; the per-level solves below are
	// inner runs with their own stage events and diagnostics, absorbed
	// into this run's.
	var hier *coarsen.Hierarchy
	var err error
	c.stageWindow(StageCoarsen, func() {
		if c.opt.Hierarchy != nil && c.opt.Hierarchy.Fine == c.g {
			// A session-supplied hierarchy for exactly this graph (pointer
			// identity: coarse weights are baked in, so a stale fine graph
			// would silently solve the wrong instance) skips construction.
			hier = c.opt.Hierarchy
		} else {
			copt := ml.CoarsenOptions(c.g, c.opt.K)
			copt.Parallelism = c.par
			hier, err = coarsen.Build(c.run, c.g, copt)
		}
	})
	if err != nil {
		return nil, err
	}
	c.diag.Levels = len(hier.Levels)
	fineAt := func(i int) *graph.Graph {
		if i == 0 {
			return hier.Fine
		}
		return hier.Levels[i-1].Coarse
	}

	// Per-level options: the inner runs inherit the caller's policy but
	// never recurse into the multilevel path, and each graph of the
	// hierarchy gets its own factory-built oracle. The finest level reuses
	// the run's resolved splitter — the one bound to the input graph
	// (possibly the caller's, e.g. an exact grid oracle).
	inner := c.opt
	inner.Multilevel = nil

	copt := inner
	cg := hier.Coarsest()
	if cg != c.g {
		copt.Splitter = factory(cg)
	}
	// The inner runs skip the full ColoringStats postlude: only their
	// colorings and diagnostics are kept, and Verify audits the final one.
	// absorb folds level i's inner run on lg into this run's diagnostics.
	absorb := func(i int, lg *graph.Graph, res Result) {
		c.diag.absorb(res.Diag)
		c.diag.LevelProfile = append(c.diag.LevelProfile, LevelDiag{
			Level: i, Vertices: lg.N(), Edges: lg.M(),
			SplitterCalls: res.Diag.SplitterCalls, Duration: res.Diag.Total,
		})
	}
	res, err := run(c.run, cg, copt, nil, false, decompose)
	if err != nil {
		return nil, err
	}
	absorb(len(hier.Levels), cg, res)
	chi := res.Coloring

	// Cancellation unwinds through the inner run itself: it threads c.run
	// and surfaces ctx.Err() as its error, which the check below turns
	// into an immediate return, so each level is one
	// checkpoint-granularity unit.
	//repro:checkpoint-ok the inner run polls c.run internally and its error return exits the loop — DESIGN.md §8
	for i := len(hier.Levels) - 1; i >= 0; i-- {
		chi = hier.Levels[i].Project(chi)
		fg := fineAt(i)
		lopt := inner
		if fg != c.g {
			lopt.Splitter = factory(fg)
		}
		res, err = run(c.run, fg, lopt, chi, false, refine(nil, false))
		if err != nil {
			return nil, err
		}
		absorb(i, fg, res)
		chi = res.Coloring
	}
	return chi, nil
}
