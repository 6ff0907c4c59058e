package repro

// Golden coloring digests: fixed inputs across the multilevel path (grid
// oracle and default oracles), the direct path, both Repartition branches
// (strict prior → polish only, broken prior → Propositions 11 and 12) and
// a topology delta (the dirty-region refine), each at Parallelism 1 and 2. Each digest was recorded on an earlier
// commit (mesh48/multilevel with the unseeded per-level oracle the path
// now always uses), so a mismatch here means a change to the coloring, not
// just to where time is spent.

import (
	"context"
	"encoding/binary"
	"hash/fnv"
	"testing"

	"repro/internal/graph"
	"repro/internal/grid"
	"repro/internal/splitter"
	"repro/internal/workload"
)

// coloringDigest is the FNV-64a hash of the coloring's little-endian
// int32 encoding.
func coloringDigest(chi []int32) uint64 {
	h := fnv.New64a()
	var b [4]byte
	for _, c := range chi {
		binary.LittleEndian.PutUint32(b[:], uint32(c))
		h.Write(b[:])
	}
	return h.Sum64()
}

func TestColoringGoldenDigests(t *testing.T) {
	const k = 16
	gridInput := func() (*graph.Graph, Options) {
		gr := grid.MustBox(64, 64)
		workload.ApplyFields(gr, workload.LognormalWeights(0.5), nil, 1)
		return gr.G, Options{K: k, P: gr.P(), Splitter: splitter.NewGrid(gr), Multilevel: &Multilevel{}}
	}
	// drifted returns a copy of the 32² mesh with the first rows' weights
	// scaled by f: f = 1 keeps the prior strict, f = 4 breaks it.
	drifted := func(f float64) *graph.Graph {
		g := workload.ClimateMesh(32, 32, 4, 1).Clone()
		for v := 0; v < g.N()/4; v++ {
			g.Weight[v] *= f
		}
		return g
	}
	cases := []struct {
		name string
		want uint64
		run  func(ctx context.Context, eng *Engine) (Result, error)
	}{
		{"grid64/multilevel", 0x0bc3d78fd4ad51fb, func(ctx context.Context, eng *Engine) (Result, error) {
			g, opt := gridInput()
			return eng.PartitionWithOptions(ctx, g, opt)
		}},
		{"mesh48/multilevel", 0x4269f9f2949a2533, func(ctx context.Context, eng *Engine) (Result, error) {
			g := workload.ClimateMesh(48, 48, 4, 1)
			return eng.PartitionWithOptions(ctx, g, Options{K: k, Multilevel: &Multilevel{}})
		}},
		{"mesh32/direct", 0x0ac082f6fb3d68ab, func(ctx context.Context, eng *Engine) (Result, error) {
			return eng.PartitionWithOptions(ctx, workload.ClimateMesh(32, 32, 4, 1), Options{K: k})
		}},
		{"mesh32/repartition-strict-prior", 0x564b40020cb32e06, func(ctx context.Context, eng *Engine) (Result, error) {
			return repartitionDrifted(ctx, t, eng, drifted(1), true)
		}},
		{"mesh32/repartition-broken-prior", 0x35637a7e0586be0a, func(ctx context.Context, eng *Engine) (Result, error) {
			return repartitionDrifted(ctx, t, eng, drifted(4), false)
		}},
		{"mesh32/repartition-topology", 0xe0f17877a2a4f409, func(ctx context.Context, eng *Engine) (Result, error) {
			return repartitionTopology(ctx, eng)
		}},
	}
	for _, tc := range cases {
		for _, par := range []int{1, 2} {
			res, err := tc.run(context.Background(), NewEngine(WithParallelism(par)))
			if err != nil {
				t.Fatalf("%s par=%d: %v", tc.name, par, err)
			}
			if got := coloringDigest(res.Coloring); got != tc.want {
				t.Errorf("%s par=%d: coloring digest %#x, want %#x", tc.name, par, got, tc.want)
			}
		}
	}
}

// repartitionTopology partitions the 32² mesh in a session and applies
// a topology delta, which resumes through the dirty-region refine.
func repartitionTopology(ctx context.Context, eng *Engine) (Result, error) {
	const k = 16
	g := workload.ClimateMesh(32, 32, 4, 1)
	inst, err := eng.NewInstance(g, Options{K: k})
	if err != nil {
		return Result{}, err
	}
	if _, err := inst.Partition(ctx); err != nil {
		return Result{}, err
	}
	n := int32(g.N())
	return inst.Repartition(ctx, Delta{
		RemoveVertices: []int32{3, 70, 517},
		AddVertices:    []float64{1.5, 2.5},
		AddEdges:       []EdgeChange{{U: n, V: 0, Cost: 1}, {U: n + 1, V: n, Cost: 2}, {U: n + 1, V: 600, Cost: 0.5}},
	})
}

// repartitionDrifted partitions the undrifted 32² mesh and resumes from
// that coloring on g, after checking the prior's strictness under g's
// weights is what the case claims.
func repartitionDrifted(ctx context.Context, t *testing.T, eng *Engine, g *graph.Graph, strict bool) (Result, error) {
	t.Helper()
	const k = 16
	base, err := eng.PartitionWithOptions(ctx, workload.ClimateMesh(32, 32, 4, 1), Options{K: k})
	if err != nil {
		return Result{}, err
	}
	if got := graph.IsStrictlyBalanced(g, base.Coloring, k); got != strict {
		t.Fatalf("prior strictly balanced under the drifted weights = %v, want %v", got, strict)
	}
	return eng.Repartition(ctx, g, Options{K: k}, base.Coloring)
}
