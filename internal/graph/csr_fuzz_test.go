package graph_test

import (
	"testing"

	"repro/internal/graph"
)

// csrInput decodes arbitrary bytes into a vertex count, an edge list and
// an optional Mutation against the built graph. Ids range one past either
// end of the valid range and costs and weights go negative, so both the
// accepting and the rejecting paths of Build and ApplyMutation are hit.
type csrInput struct {
	data []byte
}

func (in *csrInput) next() int {
	if len(in.data) == 0 {
		return 0
	}
	b := in.data[0]
	in.data = in.data[1:]
	return int(b)
}

// id returns a stable id in [-1, n].
func (in *csrInput) id(n int) int32 { return int32(in.next()%(n+2)) - 1 }

// value returns a float in [-2, 61.75] in steps of 1/4.
func (in *csrInput) value() float64 { return float64(in.next()-8) / 4 }

func (in *csrInput) mutation(n int) graph.Mutation {
	var mut graph.Mutation
	for i := in.next() % 4; i > 0; i-- {
		mut.AddVertices = append(mut.AddVertices, in.value())
	}
	span := n + len(mut.AddVertices)
	for i := in.next() % 4; i > 0; i-- {
		mut.RemoveVertices = append(mut.RemoveVertices, in.id(n))
	}
	for i := in.next() % 4; i > 0; i-- {
		mut.RemoveEdges = append(mut.RemoveEdges, graph.EdgeRef{U: in.id(n), V: in.id(n)})
	}
	for i := in.next() % 6; i > 0; i-- {
		mut.AddEdges = append(mut.AddEdges, graph.EdgeInsert{U: in.id(span), V: in.id(span), Cost: in.value()})
	}
	return mut
}

// FuzzBuildCSR: Build and ApplyMutation either reject their input or
// return a graph that validates and whose Neighbors agree with Endpoints
// slot for slot.
func FuzzBuildCSR(f *testing.F) {
	f.Add([]byte{4, 4, 1, 2, 12, 2, 3, 12, 3, 4, 12, 4, 1, 12})                                              // 4-cycle
	f.Add([]byte{3, 2, 1, 2, 9, 2, 3, 9, 1, 12, 0, 1, 1, 2, 1, 3, 4, 9})                                     // path + mutation
	f.Add([]byte{5, 3, 1, 2, 9, 2, 1, 9, 3, 3, 9})                                                           // parallel edge, self-loop
	f.Add([]byte{2, 1, 0, 3, 9})                                                                             // out of range
	f.Add([]byte{6, 5, 1, 2, 9, 2, 3, 9, 3, 4, 9, 4, 5, 9, 5, 6, 9, 2, 9, 10, 1, 3, 1, 2, 3, 1, 2, 7, 8, 9}) // remove + add
	f.Add([]byte{0})
	f.Fuzz(func(t *testing.T, data []byte) {
		in := &csrInput{data: data}
		n := in.next() % 33
		b := graph.NewBuilder(n)
		for i := in.next() % 65; i > 0 && len(in.data) > 0; i-- {
			b.AddEdge(in.id(n), in.id(n), in.value())
		}
		g, err := b.Build()
		if err != nil {
			return
		}
		if err := checkCSR(g); err != nil {
			t.Fatalf("Build: %v", err)
		}
		if len(in.data) == 0 {
			return
		}
		p, err := graph.ApplyMutation(g, in.mutation(n))
		if err != nil {
			return
		}
		if err := checkCSR(p.Graph); err != nil {
			t.Fatalf("ApplyMutation: %v", err)
		}
	})
}
