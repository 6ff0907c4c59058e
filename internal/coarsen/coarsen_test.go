package coarsen

import (
	"context"
	"errors"
	"math"
	"testing"

	"repro/internal/graph"
	"repro/internal/workload"
)

func TestBuildShrinksDeterministically(t *testing.T) {
	g := workload.ClimateMesh(48, 48, 4, 1)
	opt := Options{MinVertices: 64}
	h1, err := Build(context.Background(), g, opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(h1.Levels) == 0 {
		t.Fatal("no levels built for a 2304-vertex mesh with floor 64")
	}
	prev := g.N()
	for i, con := range h1.Levels {
		cn := con.Coarse.N()
		if cn >= prev {
			t.Fatalf("level %d did not shrink: %d → %d", i, prev, cn)
		}
		if err := con.Coarse.Validate(); err != nil {
			t.Fatalf("level %d coarse graph invalid: %v", i, err)
		}
		if math.Abs(con.Coarse.TotalWeight()-g.TotalWeight()) > 1e-6 {
			t.Fatalf("level %d lost weight", i)
		}
		prev = cn
	}
	if cn := h1.Coarsest().N(); cn > g.N() {
		t.Fatalf("coarsest has %d vertices", cn)
	}

	// A pure function of the graph: the rebuilt hierarchy is identical.
	h2, err := Build(context.Background(), g, opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(h1.Levels) != len(h2.Levels) {
		t.Fatalf("hierarchy depth differs between builds: %d vs %d", len(h1.Levels), len(h2.Levels))
	}
	for i := range h1.Levels {
		if a, b := graph.ContentHash(h1.Levels[i].Coarse), graph.ContentHash(h2.Levels[i].Coarse); a != b {
			t.Fatalf("level %d differs between builds: %s vs %s", i, a, b)
		}
	}
}

func TestBuildRespectsWeightCap(t *testing.T) {
	g := workload.ClimateMesh(32, 32, 3, 2)
	cap := 4 * g.TotalWeight() / float64(g.N()) // ~4 average vertices per cluster
	h, err := Build(context.Background(), g, Options{MinVertices: 16, MaxWeight: cap})
	if err != nil {
		t.Fatal(err)
	}
	// Merges respect the cap at match time, so no coarse vertex may weigh
	// more than the cap unless it is a singleton that already exceeded it
	// at the finest level.
	limit := cap
	if mw := g.MaxWeight(); mw > limit {
		limit = mw
	}
	for i, con := range h.Levels {
		for v, w := range con.Coarse.Weight {
			if w > limit+1e-9 {
				t.Fatalf("level %d vertex %d weight %g exceeds cap %g (max fine %g)", i, v, w, cap, g.MaxWeight())
			}
		}
	}
}

func TestBuildHonorsFloorAndLevelCap(t *testing.T) {
	g := workload.ClimateMesh(40, 40, 4, 3)
	h, err := Build(context.Background(), g, Options{MinVertices: 100})
	if err != nil {
		t.Fatal(err)
	}
	if n := h.Coarsest().N(); n > 100 && len(h.Levels) == 24 {
		t.Fatalf("stopped above the floor without exhausting levels: %d vertices", n)
	}
	// Every level but the last must still have been above the floor when
	// its contraction was decided.
	fine := g.N()
	for i, con := range h.Levels {
		if fine <= 100 {
			t.Fatalf("level %d contracted a graph already at the floor (%d)", i, fine)
		}
		fine = con.Coarse.N()
	}

	h1, err := Build(context.Background(), g, Options{MinVertices: 100, MaxLevels: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(h1.Levels) != 1 {
		t.Fatalf("MaxLevels 1 built %d levels", len(h1.Levels))
	}
}

func TestBuildCancelled(t *testing.T) {
	g := workload.ClimateMesh(64, 64, 4, 4)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Build(ctx, g, Options{MinVertices: 16}); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// lateCancelCtx reports no error for its first `after` Err calls and
// context.Canceled from then on.
type lateCancelCtx struct {
	context.Context
	after, calls int
}

func (c *lateCancelCtx) Err() error {
	c.calls++
	if c.calls > c.after {
		return context.Canceled
	}
	return nil
}

// TestBuildCancelledMidSweep pins the matching sweep's own checkpoint:
// the level loop's check and the sweep's vertex-0 poll both pass, so only
// the poll at vertex checkEvery+1 can see the cancellation. The floor
// admits exactly one level, so a sweep that missed it would finish and
// Build would return that level instead of context.Canceled.
func TestBuildCancelledMidSweep(t *testing.T) {
	g := workload.ClimateMesh(100, 100, 4, 4)
	if g.N() <= checkEvery+1 {
		t.Fatalf("N = %d does not reach the vertex-%d poll", g.N(), checkEvery+1)
	}
	opt := Options{MinVertices: g.N() - 1}
	if h, err := Build(context.Background(), g, opt); err != nil || len(h.Levels) != 1 {
		t.Fatalf("uncancelled Build: err = %v, want exactly one level", err)
	}
	ctx := &lateCancelCtx{Context: context.Background(), after: 2}
	h, err := Build(ctx, g, opt)
	if !errors.Is(err, context.Canceled) || h != nil {
		t.Fatalf("Build = (%v, %v), want (nil, context.Canceled)", h, err)
	}
	if ctx.calls != 3 {
		t.Fatalf("Err polled %d times, want 3 (level loop, vertex 0, vertex %d)", ctx.calls, checkEvery+1)
	}
}

func TestBuildTinyGraphIsEmptyHierarchy(t *testing.T) {
	g := workload.ClimateMesh(4, 4, 2, 5)
	h, err := Build(context.Background(), g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(h.Levels) != 0 || h.Coarsest() != g {
		t.Fatalf("16-vertex graph below the default floor built %d levels", len(h.Levels))
	}
}

// TestBuildParallelMatchesSequential pins the coarsening determinism
// contract end-to-end: Parallelism N builds a hierarchy byte-identical to
// Parallelism 1 — same depth, same per-level content hashes, same
// assignment maps — on an instance large enough to exercise the parallel
// contraction sweep.
func TestBuildParallelMatchesSequential(t *testing.T) {
	g := workload.ClimateMesh(140, 140, 4, 7) // fine M ≥ contractParCutoff, coarse N > contractChunk
	opt := Options{MinVertices: 64, Parallelism: 1}
	seq, err := Build(context.Background(), g, opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(seq.Levels) == 0 {
		t.Fatal("instance did not coarsen")
	}
	for _, par := range []int{2, 4, 8} {
		popt := opt
		popt.Parallelism = par
		h, err := Build(context.Background(), g, popt)
		if err != nil {
			t.Fatalf("par=%d: %v", par, err)
		}
		if len(h.Levels) != len(seq.Levels) {
			t.Fatalf("par=%d: depth %d != %d", par, len(h.Levels), len(seq.Levels))
		}
		for i := range seq.Levels {
			if a, b := graph.ContentHash(h.Levels[i].Coarse), graph.ContentHash(seq.Levels[i].Coarse); a != b {
				t.Fatalf("par=%d: level %d coarse hash differs: %s vs %s", par, i, a, b)
			}
			for v := range seq.Levels[i].Map {
				if h.Levels[i].Map[v] != seq.Levels[i].Map[v] {
					t.Fatalf("par=%d: level %d map differs at %d", par, i, v)
				}
			}
		}
	}
}

// TestBuildAllocationChurn pins the pooled-scratch behavior (the
// per-level allocation fix): at steady state a Build allocates only the
// hierarchy it returns — level graphs, maps, contractions — not fresh
// matching/quotient scratch per level. It measures 121 allocs / ~488 KB
// per op on this instance (go1.24, linux/amd64), and the bounds sit ~20%
// above that. Drawing the matching and contraction scratch fresh on every
// level instead of from the pools measures 172 allocs / ~667 KB, over
// both bounds.
func TestBuildAllocationChurn(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation benchmark is a full-test concern")
	}
	g := workload.ClimateMesh(64, 64, 4, 3)
	opt := Options{MinVertices: 64}
	r := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := Build(context.Background(), g, opt); err != nil {
				b.Fatal(err)
			}
		}
	})
	if got := r.AllocsPerOp(); got > 145 {
		t.Fatalf("Build allocates %d objects/op, want ≤ 145 (per-level scratch churn?)", got)
	}
	if got := r.AllocedBytesPerOp(); got > 585<<10 {
		t.Fatalf("Build allocates %d bytes/op, want ≤ %d (per-level scratch churn?)", got, 585<<10)
	}
}
