package graph_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/graph"
	"repro/internal/grid"
	"repro/internal/workload"
)

// checkCSR reports the first violation of the CSR invariant every
// constructor must establish: the graph validates, and each adjacency slot
// of v pairs an edge incident to v with that edge's other endpoint, with
// 2M slots in all. It reads only the exported surface, so it does not
// lean on Validate's own slot check.
func checkCSR(g *graph.Graph) error {
	if err := g.Validate(); err != nil {
		return err
	}
	slots := 0
	for v := int32(0); v < int32(g.N()); v++ {
		es, nb := g.IncidentEdges(v), g.Neighbors(v)
		if len(nb) != len(es) {
			return fmt.Errorf("vertex %d: %d neighbors for %d incident edges", v, len(nb), len(es))
		}
		for i, e := range es {
			a, b := g.Endpoints(e)
			if !(a == v && b == nb[i]) && !(b == v && a == nb[i]) {
				return fmt.Errorf("vertex %d slot %d: neighbor %d across edge %d = {%d,%d}", v, i, nb[i], e, a, b)
			}
		}
		slots += len(es)
	}
	if slots != 2*g.M() {
		return fmt.Errorf("%d slots, want 2M = %d", slots, 2*g.M())
	}
	return nil
}

func randomBuilt(rng *rand.Rand, n, m int) *graph.Graph {
	b := graph.NewBuilder(n)
	seen := make(map[[2]int32]bool)
	for len(seen) < m {
		u, v := int32(rng.Intn(n)), int32(rng.Intn(n))
		if u == v {
			continue
		}
		if u > v {
			u, v = v, u
		}
		if seen[[2]int32{u, v}] {
			continue
		}
		seen[[2]int32{u, v}] = true
		// Insert in random orientation: the builder must normalize.
		if rng.Intn(2) == 0 {
			u, v = v, u
		}
		b.AddEdge(u, v, rng.Float64())
		b.SetWeight(u, 1+rng.Float64())
	}
	return b.MustBuild()
}

// pairs maps vertex v to coarse vertex v/2: surjective onto ⌈N/2⌉ ids.
func pairs(n int) ([]int32, int) {
	assign := make([]int32, n)
	for v := range assign {
		assign[v] = int32(v / 2)
	}
	return assign, (n + 1) / 2
}

// TestCSRNeighborsAlignedWithEndpoints checks the CSR invariant on the
// output of every constructor: Builder, FromEdges, Clone, Contract and
// ContractPar (sequential and fanned out above the parallel cutoff),
// ApplyMutation, the text reader, Sub.InducedCopy, and the grid and
// climate-mesh generators.
func TestCSRNeighborsAlignedWithEndpoints(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	built := randomBuilt(rng, 60, 150)
	mesh := workload.ClimateMesh(12, 12, 4, 1)
	// Above contractParCutoff (2^15 fine edges) with more than one
	// contraction chunk (2048 coarse vertices), so par 2 fans out.
	bigMesh := workload.ClimateMesh(120, 120, 4, 2)
	if bigMesh.M() < 1<<15 || bigMesh.N()/2 <= 2048 {
		t.Fatalf("bigMesh too small for the parallel contraction: N=%d M=%d", bigMesh.N(), bigMesh.M())
	}

	us, vs, cs := built.SortedEdgeList()
	fromEdges, err := graph.FromEdges(built.N(), vs, us, cs, built.Weight) // swapped on purpose
	if err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if err := graph.Write(&buf, mesh); err != nil {
		t.Fatal(err)
	}
	read, err := graph.Read(&buf)
	if err != nil {
		t.Fatal(err)
	}

	contract := func(g *graph.Graph, par int) *graph.Graph {
		assign, coarseN := pairs(g.N())
		c, err := graph.ContractPar(g, assign, coarseN, par)
		if err != nil {
			t.Fatal(err)
		}
		return c.Coarse
	}
	assign, coarseN := pairs(mesh.N())
	c, err := graph.Contract(mesh, assign, coarseN)
	if err != nil {
		t.Fatal(err)
	}

	sub := graph.NewSub(mesh, []int32{0, 1, 2, 12, 13, 14, 25, 40, 41, 143})
	induced, _ := sub.InducedCopy()
	sub.Release()

	n := mesh.N()
	a, b := mesh.Endpoints(0)
	patch, err := graph.ApplyMutation(mesh, graph.Mutation{
		RemoveEdges:    []graph.EdgeRef{{U: b, V: a}},
		RemoveVertices: []int32{5, 77},
		AddVertices:    []float64{1, 2.5},
		AddEdges: []graph.EdgeInsert{
			{U: int32(n), V: int32(n + 1), Cost: 1},
			{U: 3, V: int32(n), Cost: 0.5},
			{U: a, V: b, Cost: 2},
		},
	})
	if err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name string
		g    *graph.Graph
	}{
		{"Builder", built},
		{"Builder/empty", graph.NewBuilder(0).MustBuild()},
		{"Builder/isolated", graph.NewBuilder(5).MustBuild()},
		{"FromEdges", fromEdges},
		{"Clone", built.Clone()},
		{"Contract", c.Coarse},
		{"ContractPar/par1", contract(mesh, 1)},
		{"ContractPar/par2", contract(mesh, 2)},
		{"ContractPar/par1/large", contract(bigMesh, 1)},
		{"ContractPar/par2/large", contract(bigMesh, 2)},
		{"ApplyMutation", patch.Graph},
		{"Read", read},
		{"InducedCopy", induced},
		{"grid.MustBox", grid.MustBox(9, 7).G},
		{"grid.MustBox/3D", grid.MustBox(4, 3, 5).G},
		{"workload.ClimateMesh", mesh},
	}
	for _, tc := range cases {
		if err := checkCSR(tc.g); err != nil {
			t.Errorf("%s: %v", tc.name, err)
		}
	}
}
