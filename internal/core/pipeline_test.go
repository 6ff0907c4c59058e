package core

import (
	"context"
	"runtime"
	"slices"
	"testing"

	"repro/internal/workload"
)

// TestRefineStrictPriorSkipsToPolish pins the zero-oracle-calls resume:
// with a still-strict prior, the rebalancing stages must not run.
func TestRefineStrictPriorSkipsToPolish(t *testing.T) {
	g := workload.ClimateMesh(20, 20, 3, 9)
	res, err := Decompose(context.Background(), g, Options{K: 6, Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	warm, err := Refine(context.Background(), g, Options{K: 6, Parallelism: 1}, res.Coloring)
	if err != nil {
		t.Fatal(err)
	}
	if warm.Diag.SplitterCalls != 0 {
		t.Fatalf("strict prior paid %d oracle calls, want 0", warm.Diag.SplitterCalls)
	}
}

// TestMultilevelRejectsMeasures pins the documented incompatibility.
func TestMultilevelRejectsMeasures(t *testing.T) {
	g := workload.ClimateMesh(16, 16, 3, 1)
	extra := make([]float64, g.N())
	for v := range extra {
		extra[v] = float64(v % 3)
	}
	_, err := Decompose(context.Background(), g, Options{
		K: 4, Multilevel: &Multilevel{}, Measures: [][]float64{extra},
	})
	if err == nil {
		t.Fatal("Multilevel+Measures accepted")
	}
}

// TestDecomposeRejectsMisSizedMeasures: a measure whose length is not
// g.N() is a caller error, reported instead of indexing out of range.
func TestDecomposeRejectsMisSizedMeasures(t *testing.T) {
	g := workload.ClimateMesh(16, 16, 3, 1)
	for _, n := range []int{3, 0, g.N() + 1} {
		_, err := Decompose(context.Background(), g, Options{K: 4, Measures: [][]float64{make([]float64, n)}})
		if err == nil {
			t.Fatalf("measure of length %d accepted for N = %d", n, g.N())
		}
	}
}

// TestMultilevelDiagnostics checks the multilevel accounting: levels and
// coarsen time recorded, oracle calls aggregated across the hierarchy and
// far below the direct path's count on an oracle-bound instance.
func TestMultilevelDiagnostics(t *testing.T) {
	g := workload.ClimateMesh(48, 48, 4, 2)
	direct, err := Decompose(context.Background(), g, Options{K: 8, Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	ml, err := Decompose(context.Background(), g, Options{
		K: 8, Parallelism: 1, Multilevel: &Multilevel{MinVertices: 128},
	})
	if err != nil {
		t.Fatal(err)
	}
	if ml.Diag.Levels == 0 {
		t.Fatal("no coarsening levels recorded")
	}
	if ml.Diag.Coarsen <= 0 {
		t.Fatal("no coarsening time recorded")
	}
	if ml.Diag.SplitterCalls == 0 {
		t.Fatal("multilevel run recorded no oracle calls at all")
	}
	if v := Verify(g, Options{K: 8}, ml, 20); !v.OK() {
		t.Fatalf("multilevel result failed verification: %v", v.Errors)
	}
	_ = direct
}

// TestMultilevelDeterministic: same options ⇒ byte-identical multilevel
// coloring, at every parallelism level (the core determinism contract
// extends through coarsening, which is single-threaded and pure).
func TestMultilevelDeterministic(t *testing.T) {
	g := workload.ClimateMesh(40, 40, 4, 11)
	opt := Options{K: 8, Multilevel: &Multilevel{MinVertices: 128}}
	var first []int32
	for _, par := range []int{1, 1, 0, 4} {
		o := opt
		o.Parallelism = par
		res, err := Decompose(context.Background(), g, o)
		if err != nil {
			t.Fatal(err)
		}
		if first == nil {
			first = res.Coloring
			continue
		}
		if !slices.Equal(first, res.Coloring) {
			t.Fatalf("multilevel coloring differs at Parallelism=%d", par)
		}
	}
}

// TestStrictPriorLevelRefineIsLean pins the cost of a multilevel level
// whose projected prior is already strict: the refine runs only the
// weight-only strictness check, so it computes no π (8 bytes per vertex)
// and, with polish skipped, no boundary pass — the level postlude builds
// no ColoringStats. Everything it allocates per run is the private copy
// of the prior (4 bytes per vertex) plus O(k).
func TestStrictPriorLevelRefineIsLean(t *testing.T) {
	const k = 16
	_, g := gridGraph(t, 256, 256)
	n := g.N()
	prior := make([]int32, n)
	for v := range prior {
		prior[v] = int32(v * k / n) // equal class weights: strict
	}
	opt := Options{K: k, Parallelism: 1, SkipPolish: true}
	refineLevel := func() Result {
		res, err := run(context.Background(), g, opt, prior, false, refine(nil, false))
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	res := refineLevel()
	if res.Diag.SplitterCalls != 0 || res.UsedFallback || !slices.Equal(res.Coloring, prior) {
		t.Fatalf("strict prior was rebalanced: %d oracle calls, fallback %v", res.Diag.SplitterCalls, res.UsedFallback)
	}
	if res.Stats.ClassBoundary != nil {
		t.Fatal("level postlude computed per-class boundary costs")
	}
	const runs = 8
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		refineLevel()
	}
	runtime.ReadMemStats(&after)
	if perRun := (after.TotalAlloc - before.TotalAlloc) / runs; perRun >= uint64(8*n) {
		t.Fatalf("strict-prior level refine allocated %d bytes per run, want < 8·N = %d", perRun, 8*n)
	}
}
