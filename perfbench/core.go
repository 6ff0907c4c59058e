package main

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"strings"
	"time"

	"repro"
	"repro/internal/coarsen"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/grid"
	"repro/internal/measure"
	"repro/internal/splitter"
	"repro/internal/workload"
)

// k is the part count of every workload.
const k = 16

// verifyFactor is the advisory Theorem 4 multiplier passed to
// repro.Verify (the Engine's default); only the hard guarantees fail an op.
const verifyFactor = 20

// coreInput is one core workload's generated input and run options.
type coreInput struct {
	g   *graph.Graph
	opt repro.Options
	// traced returns the oracle a traced solve uses in place of
	// opt.Splitter: the same oracle wrapped in timing spans, or nil
	// where wrapping it would change which program runs.
	traced func(obs *stageObserver) splitter.Splitter
}

// gridML is a 1024×1024 grid with lognormal(0.5) weights on the multilevel
// path with the exact grid oracle: coarsening is about half the solve.
func gridML(seed int64, tiny bool) coreInput {
	side := 1024
	if tiny {
		side = 64
	}
	gr := grid.MustBox(side, side)
	workload.ApplyFields(gr, workload.LognormalWeights(0.5), nil, seed)
	return coreInput{
		g:   gr.G,
		opt: repro.Options{K: k, P: gr.P(), Splitter: splitter.NewGrid(gr), Multilevel: &repro.Multilevel{}},
		traced: func(obs *stageObserver) splitter.Splitter {
			return timedSplitter{inner: splitter.NewGrid(gr), obs: obs, name: "grid.split"}
		},
	}
}

// meshDirect is the paper's algorithm on a 256×256 climate mesh: the
// default direct path, where the FM-refined BFS oracle is most of the
// solve and nothing coarsens.
func meshDirect(seed int64, tiny bool) coreInput {
	side := 256
	if tiny {
		side = 32
	}
	g := workload.ClimateMesh(side, side, 4, seed)
	return coreInput{
		g:   g,
		opt: repro.Options{K: k},
		traced: func(obs *stageObserver) splitter.Splitter {
			// The oracle core mints by default, built here so its inner
			// BFS prefix and the whole refined call can both be timed.
			inner := timedSplitter{inner: splitter.NewBFS(g), obs: obs, name: "splitter.inner"}
			rf := splitter.NewRefined(g, inner)
			rf.Par = par
			return timedSplitter{inner: rf, obs: obs, name: "splitter.split"}
		},
	}
}

// meshML is a 384×384 climate mesh on the multilevel path with default
// oracles, the only workload where the warm-started per-level oracle
// runs. Its oracle is not wrapped: supplying one would switch the warm
// start off, so calls are counted through the Observer only.
func meshML(seed int64, tiny bool) coreInput {
	side := 384
	if tiny {
		side = 48
	}
	g := workload.ClimateMesh(side, side, 4, seed)
	return coreInput{
		g:      g,
		opt:    repro.Options{K: k, Multilevel: &repro.Multilevel{}},
		traced: func(*stageObserver) splitter.Splitter { return nil },
	}
}

// checkSolve applies the correctness gate to one solve: the run must
// succeed, repro.Verify's hard guarantees must hold, and the coloring must
// be byte-identical to the reference run's when one is given.
func checkSolve(g *graph.Graph, opt repro.Options, res repro.Result, err error, ref []int32) (repro.Verification, error) {
	if err != nil {
		return repro.Verification{}, err
	}
	v := repro.Verify(g, opt, res, verifyFactor)
	if !v.OK() {
		return v, fmt.Errorf("verify: %s", strings.Join(v.Errors, "; "))
	}
	if ref != nil && !slices.Equal(res.Coloring, ref) {
		return v, errors.New("coloring differs from the untraced reference solve")
	}
	return v, nil
}

// draw is one generated input of a run with its reference coloring: the
// coloring its setup solve produced, which every later solve of the draw
// must reproduce byte for byte.
type draw struct {
	coreInput
	ref []int32
}

// runCore runs one core workload. Setup generates n inputs (draws) from
// the seed and solves each once, so setup_s is a median over the draws;
// the run then solves the draws round-robin for its time, so one draw's
// luck does not set the run's figures, and finally replays draw 0 at
// Parallelism=1. Every solve is verified and compared with its draw's
// reference coloring.
func runCore(cfg config, mk func(seed int64, tiny bool) coreInput, n int) (*result, error) {
	ctx := context.Background()
	eng := repro.NewEngine()
	res := newResult(endToEnd)
	if cfg.trace {
		res = newResult(perLayer)
	}
	draws := make([]*draw, n)
	var setups, ratios []float64
	for j := range draws {
		// A collection between phases keeps one phase's garbage off the next.
		runtime.GC()
		start := time.Now()
		in := mk(cfg.seed*int64(n)+int64(j), cfg.tiny)
		in.opt.Parallelism = par
		r, err := eng.PartitionWithOptions(ctx, in.g, in.opt)
		setups = append(setups, time.Since(start).Seconds())
		if err != nil {
			return nil, fmt.Errorf("setup solve of draw %d: %w", j, err)
		}
		v, err := checkSolve(in.g, in.opt, r, nil, nil)
		res.check(err)
		draws[j] = &draw{coreInput: in, ref: r.Coloring}
		ratios = append(ratios, v.Stats.MaxBoundary/core.TheoremBound(in.g, k, exponent(in.opt)))
	}
	certified := 0
	solve := func(d *draw, opt repro.Options) (time.Duration, uint64) {
		a0 := totalAlloc()
		start := time.Now()
		r, err := eng.PartitionWithOptions(ctx, d.g, opt)
		took := time.Since(start)
		alloc := totalAlloc() - a0
		_, err = checkSolve(d.g, opt, r, err, d.ref)
		res.check(err)
		if err == nil {
			certified++
		}
		return took, alloc
	}
	// replay solves draw 0 at Parallelism=1, which must reproduce its
	// coloring byte for byte.
	replay := func() time.Duration {
		seq := draws[0].opt
		seq.Parallelism = 1
		d, _ := solve(draws[0], seq)
		return d
	}

	runtime.GC()
	lat := make([][]float64, len(draws))
	var traced []float64
	var alloc uint64
	deadline := time.Now().Add(cfg.seconds)
	tr := newTracer()
	layers := map[string][]float64{}
	for i := 0; i < len(draws) || time.Now().Before(deadline); i++ {
		j := i % len(draws)
		d, a := solve(draws[j], draws[j].opt)
		lat[j] = append(lat[j], ms(d))
		alloc += a
		if cfg.trace {
			traced = append(traced, ms(tracedSolve(ctx, eng, tr, int64(i+1), draws[j], res, layers)))
		}
	}
	all := slices.Concat(lat...)
	if cfg.trace {
		layers["core.par_speedup"] = []float64{ms(replay()) / median(lat[0])}
		layers["trace.overhead_ms"] = []float64{median(traced) - median(all)}
		for name, xs := range layers {
			res.set(name, median(xs), len(xs))
		}
		if cfg.spans != "" {
			if err := tr.write(cfg.spans); err != nil {
				return nil, fmt.Errorf("writing spans: %w", err)
			}
		}
		return res, nil
	}

	total := 0.0
	for _, x := range all {
		total += x
	}
	res.set("rps", float64(certified)/(total/1e3), len(all))
	res.set("setup_s", median(setups), len(setups))
	res.set("alloc_mb_per_op", float64(alloc)/float64(len(all))/1e6, len(all))
	res.set("latency_ms_p50", median(all), len(all))
	res.set("max_boundary_ratio", mean(ratios), len(ratios))
	replay()
	return res, nil
}

// leafStages are the pipeline stages that enclose no other stage; their
// spans' durations are their self times.
var leafStages = []string{"multibalance", "almoststrict", "strictpack", "polish", "coarsen"}

// stageMetric names the per-layer metric of a stage's time in the solve.
// The coarsen stage's is core.coarsen_stage_ms, beside coarsen.build_ms,
// which times coarsen.Build called from outside.
func stageMetric(stage string) string {
	if stage == "coarsen" {
		return "core.coarsen_stage_ms"
	}
	return "core." + stage + "_ms"
}

// tracedSolve runs one solve with the Observer and oracle wrappers
// attached, checks its coloring against the untraced reference, then
// times each layer's public entry point from outside on the same input.
// Every span lands in trace id; per-layer values are appended to layers.
func tracedSolve(ctx context.Context, eng *repro.Engine, tr *tracer, id int64, in *draw, res *result, layers map[string][]float64) time.Duration {
	root := tr.begin(id, 0, "solve")
	obs := &stageObserver{t: tr, trace: id, root: root}
	opt := in.opt
	opt.Observer = obs
	if sp := in.traced(obs); sp != nil {
		opt.Splitter = sp
	}
	r, err := eng.PartitionWithOptions(ctx, in.g, opt)
	wall := tr.end(root)
	// Verify runs outside the solve span so it can be timed as its own
	// layer; the byte check holds the traced coloring to the untraced one.
	var verr error
	tr.time(id, 0, "core.verify", func() { _, verr = checkSolve(in.g, in.opt, r, err, in.ref) })
	res.check(verr)
	if err != nil {
		return wall
	}
	tr.time(id, 0, "graph.stats", func() { graph.Stats(in.g, r.Coloring, k) })
	tr.time(id, 0, "measure.pi", func() { measure.SplittingCostPar(in.g, exponent(in.opt), 1, par) })
	if in.opt.Multilevel != nil {
		res.check(timeCoarsening(ctx, tr, id, in.g, in.opt, layers))
	}

	mine := func(t int64) bool { return t == id }
	spent := func(name string) float64 { d, _ := tr.sum(name, mine); return ms(d) }
	calls := func(name string) int { _, n := tr.sum(name, mine); return n }
	add := func(name string, v float64) { layers[name] = append(layers[name], v) }
	attributed := 0.0
	for _, s := range leafStages {
		v := spent("core." + s)
		attributed += v
		add(stageMetric(s), v)
	}
	add("core.unattributed_ms", ms(wall)-attributed)
	add("core.verify_ms", spent("core.verify"))
	add("graph.stats_ms", spent("graph.stats"))
	add("measure.pi_ms", spent("measure.pi"))
	split, inner := spent("splitter.split"), spent("splitter.inner")
	add("splitter.calls", float64(calls("splitter.split")+calls("grid.split")))
	add("splitter.split_ms", split)
	add("splitter.inner_ms", inner)
	add("splitter.fm_ms", split-inner)
	add("grid.split_ms", spent("grid.split"))
	obs.mu.Lock()
	add("core.oracle_calls", float64(obs.oracle))
	add("core.polish_rounds", float64(obs.rounds))
	add("core.polish_improved_ratio", ratio(float64(obs.improved), float64(obs.rounds)))
	obs.mu.Unlock()
	return wall
}

// timeCoarsening times the coarsening layer from outside: coarsen.Build
// with the options the multilevel driver uses, then graph.ContractPar
// re-run on each built level's matching, digest-checked against the level
// Build produced. Matching time is Build minus its contractions.
func timeCoarsening(ctx context.Context, tr *tracer, id int64, g *graph.Graph, opt repro.Options, layers map[string][]float64) error {
	copt := opt.Multilevel.CoarsenOptions(g, opt.K)
	copt.Parallelism = par
	var hier *coarsen.Hierarchy
	var err error
	build := tr.time(id, 0, "coarsen.build", func() { hier, err = coarsen.Build(ctx, g, copt) })
	if err != nil {
		return fmt.Errorf("coarsen.Build: %w", err)
	}
	var contract time.Duration
	fine := g
	for i, lvl := range hier.Levels {
		var con *graph.Contraction
		contract += tr.time(id, 0, "graph.contract", func() {
			con, err = graph.ContractPar(fine, lvl.Map, lvl.Coarse.N(), par)
		})
		if err != nil {
			return fmt.Errorf("graph.ContractPar level %d: %w", i, err)
		}
		if con.Digest() != lvl.Digest() {
			return fmt.Errorf("graph.ContractPar level %d: coarse graph differs from the built level", i)
		}
		fine = lvl.Coarse
	}
	add := func(name string, v float64) { layers[name] = append(layers[name], v) }
	add("coarsen.build_ms", ms(build))
	add("graph.contract_ms", ms(contract))
	add("coarsen.match_ms", ms(build-contract))
	add("coarsen.levels", float64(len(hier.Levels)))
	add("coarsen.shrink_ratio", float64(hier.Coarsest().N())/float64(g.N()))
	return nil
}

// exponent is the Hölder exponent a run resolves opt.P to.
func exponent(opt repro.Options) float64 {
	if opt.P == 0 {
		return 2
	}
	return opt.P
}
