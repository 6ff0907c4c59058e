package core

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/graph"
	"repro/internal/measure"
	"repro/internal/splitter"
)

// Definition 13 b/c shape: the χ₁ remainder must be a strict subset and
// its π mass and size must shrink.
func TestShrinkRemainderShrinks(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	gr, g := gridGraph(t, 24, 24)
	randomizeWeights(rng, g, 0.2)
	c := testCtx(g, gr, 2)
	k := 4
	chi := c.minMaxBalanced(k, [][]float64{g.Weight})
	classes := classLists(chi, k)
	sr := c.shrink(classes, g.Weight)

	sizeBefore := g.N()
	size1 := 0
	pi1, piBefore := 0.0, measure.Measure(c.splittingCost()).Total()
	for i := 0; i < k; i++ {
		size1 += len(sr.classes1[i])
		pi1 += sumOver(c.splittingCost(), sr.classes1[i])
	}
	if size1 >= sizeBefore {
		t.Fatalf("|W₁| = %d did not shrink from %d", size1, sizeBefore)
	}
	if pi1 >= piBefore {
		t.Fatalf("π(W₁) = %v did not shrink from %v", pi1, piBefore)
	}
}

// The direct Proposition 11 realization touches few classes and keeps
// weakly balanced colorings' boundary within a constant factor.
func TestDirectAlmostStrictBoundaryGrowth(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	gr, g := gridGraph(t, 20, 20)
	randomizeWeights(rng, g, 1)
	c := testCtx(g, gr, 2)
	k := 8
	chi := c.minMaxBalanced(k, [][]float64{g.Weight})
	before := graph.Stats(g, chi, k)
	out := c.almostStrict(chi, k, false)
	after := graph.Stats(g, out, k)
	if !graph.IsAlmostStrictlyBalanced(g, out, k) {
		t.Fatal("direct method missed the ±2‖w‖∞ window")
	}
	// Proposition 11's bound: constant factor plus splitting costs.
	if after.MaxBoundary > 4*before.MaxBoundary+4*g.MaxCostDegree() {
		t.Fatalf("boundary grew too much: %v -> %v", before.MaxBoundary, after.MaxBoundary)
	}
}

// The faithful paper recursion also reaches the window.
func TestPaperShrinkReachesWindow(t *testing.T) {
	rng := rand.New(rand.NewSource(55))
	gr, g := gridGraph(t, 24, 24)
	randomizeWeights(rng, g, 0.2) // small ‖w‖∞ keeps the recursion alive
	c := testCtx(g, gr, 2)
	k := 4
	chi := c.minMaxBalanced(k, [][]float64{g.Weight})
	out := c.almostStrict(chi, k, true)
	if err := graph.CheckColoring(out, k); err != nil {
		t.Fatal(err)
	}
	if !graph.IsAlmostStrictlyBalanced(g, out, k) {
		st := graph.Stats(g, out, k)
		t.Fatalf("paper shrink missed the window: dev %v vs %v",
			st.MaxWeightDeviation, 2*g.MaxWeight())
	}
}

// almostStrict on an already-almost-strict coloring must be (nearly) a
// no-op — the early exit that prevents boundary churn.
func TestAlmostStrictIdempotent(t *testing.T) {
	gr, g := gridGraph(t, 16, 16)
	c := testCtx(g, gr, 2)
	k := 4
	chi := make([]int32, g.N())
	for v := range chi {
		chi[v] = int32(v * k / g.N()) // contiguous quarters: perfectly balanced
	}
	before := graph.Stats(g, chi, k)
	out := c.almostStrict(chi, k, true) // paper path has the early exit
	after := graph.Stats(g, out, k)
	if after.MaxBoundary > before.MaxBoundary+1e-9 {
		t.Fatalf("idempotent call grew boundary %v -> %v",
			before.MaxBoundary, after.MaxBoundary)
	}
}

func TestDegreesWithin(t *testing.T) {
	gr, g := gridGraph(t, 4, 4)
	c := testCtx(g, gr, 2)
	W := []int32{0, 1, 4}
	deg := c.degreesWithin(W)
	if deg[0] != 2 { // neighbors 1 and 4 inside W
		t.Fatalf("deg_W(0) = %v, want 2", deg[0])
	}
	if deg[2] != 0 {
		t.Fatal("vertex outside W should have degree 0")
	}
}

// cutDownClasses respects offsets and never leaves a class above the
// limit when chunks exist.
func TestCutDownClassesWithOffsets(t *testing.T) {
	gr, g := gridGraph(t, 8, 8)
	c := testCtx(g, gr, 2)
	k := 2
	classes := classLists(make([]int32, g.N()), k) // all in class 0
	offsets := []float64{0, 100}                   // class 1 pre-loaded
	maxw := maxOf(g.Weight)
	buffer := c.cutDownClasses(classes, g.Weight, offsets, 20, maxw)
	if len(buffer) == 0 {
		t.Fatal("no chunks cut from overweight class")
	}
	if got := sumOver(g.Weight, classes[0]); got > 20+1e-9 {
		t.Fatalf("class 0 still at %v > limit 20", got)
	}
	for _, ch := range buffer {
		if ch.weight > maxw+1e-9 {
			t.Fatalf("chunk weight %v exceeds ‖w‖∞", ch.weight)
		}
	}
}

// greedyAssign distributes heaviest-first onto lightest bins.
func TestGreedyAssign(t *testing.T) {
	g := graph.Path(6)
	classes := [][]int32{nil, nil}
	buffer := []chunk{
		{[]int32{0}, 5}, {[]int32{1}, 3}, {[]int32{2}, 3},
		{[]int32{3}, 2}, {[]int32{4}, 2}, {[]int32{5}, 1},
	}
	w := []float64{5, 3, 3, 2, 2, 1}
	greedyAssign(classes, w, nil, buffer)
	w0 := sumOver(w, classes[0])
	w1 := sumOver(w, classes[1])
	if w0+w1 != 16 {
		t.Fatalf("weights lost: %v + %v", w0, w1)
	}
	if d := w0 - w1; d > 2 || d < -2 {
		t.Fatalf("greedy imbalance %v vs %v", w0, w1)
	}
	_ = g
}

func TestSplitterContractHelpers(t *testing.T) {
	// extractChunk's contract-violation fallback: oversized oracle output.
	gr, g := gridGraph(t, 6, 6)
	bad := &oversizeSplitter{inner: splitter.NewGrid(gr)}
	c := &ctx{g: g, sp: bad, p: 2}
	U := graph.AllVertices(g)
	maxw := maxOf(g.Weight)
	X := c.extractChunk(U, g.Weight, maxw)
	if got := sumOver(g.Weight, X); got > maxw+1e-9 {
		t.Fatalf("fallback chunk weight %v > ‖w‖∞ %v", got, maxw)
	}
}

type oversizeSplitter struct{ inner splitter.Splitter }

func (o *oversizeSplitter) Split(_ context.Context, W []int32, w []float64, target float64) []int32 {
	// Always return (almost) everything — grossly violates the window.
	if len(W) > 1 {
		return W[:len(W)-1]
	}
	return W
}
