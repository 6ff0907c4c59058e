// Package separator implements the balanced-separator vocabulary of
// Appendix A.3 in Steurer (SPAA 2006) — separations (A, B), w-balanced
// separators, the separability β_p (Definitions 34/35) — together with the
// two directions of Lemma 37 connecting separators and splitting sets:
//
//   - FromSplitter turns a splitting-set oracle into a balanced-separation
//     routine (first half of Lemma 37, β_p = O(φ_ℓ · σ_p));
//   - SplitterFromSeparator runs the recursive procedure Split to turn a
//     balanced-separation routine into a splitting-set oracle (second half,
//     σ_p = O_p(φ_ℓ · Δ^{1/q} · β_p)).
//
// A concrete separator routine for mesh-like graphs is provided by
// BFSLayered, which removes a cheap BFS layer near the weight median.
package separator

import (
	"sort"

	"repro/internal/graph"
)

// Separation is a pair (A, B) of vertex sets with A ∪ B = W such that no
// edge of G[W] joins A\B and B\A. S = A ∩ B is the separator.
type Separation struct {
	A, B []int32
}

// Separator returns S = A ∩ B.
func (s Separation) Separator() []int32 {
	inA := make(map[int32]bool, len(s.A))
	for _, v := range s.A {
		inA[v] = true
	}
	var out []int32
	for _, v := range s.B {
		if inA[v] {
			out = append(out, v)
		}
	}
	return out
}

// Sides returns A\B and B\A.
func (s Separation) Sides() (aOnly, bOnly []int32) {
	inB := make(map[int32]bool, len(s.B))
	for _, v := range s.B {
		inB[v] = true
	}
	inA := make(map[int32]bool, len(s.A))
	for _, v := range s.A {
		inA[v] = true
		if !inB[v] {
			aOnly = append(aOnly, v)
		}
	}
	for _, v := range s.B {
		if !inA[v] {
			bOnly = append(bOnly, v)
		}
	}
	return aOnly, bOnly
}

// Cost returns τ(A ∩ B) for vertex costs τ.
func (s Separation) Cost(tau []float64) float64 {
	t := 0.0
	for _, v := range s.Separator() {
		t += tau[v]
	}
	return t
}

// IsValid checks the structural conditions of Definition 34 on G[W]:
// A ∪ B = W and no edge of G[W] joins A\B and B\A.
func (s Separation) IsValid(g *graph.Graph, W []int32) bool {
	side := make(map[int32]int, len(W)) // 1 = A only, 2 = B only, 3 = both
	for _, v := range s.A {
		side[v] |= 1
	}
	for _, v := range s.B {
		side[v] |= 2
	}
	count := 0
	inW := make(map[int32]bool, len(W))
	for _, v := range W {
		inW[v] = true
		if side[v] == 0 {
			return false // not covered
		}
		count++
	}
	for v, m := range side {
		if !inW[v] {
			return false // vertex outside W
		}
		_ = m
	}
	for _, v := range W {
		if side[v] != 1 {
			continue
		}
		for _, o := range g.Neighbors(v) {
			if inW[o] && side[o] == 2 {
				return false // edge joins A\B and B\A
			}
		}
	}
	return count > 0 || len(W) == 0
}

// IsBalanced reports whether max(w(A\B), w(B\A)) ≤ (2/3)·w(W)
// (Definition 34's balance condition) with float slack.
func (s Separation) IsBalanced(w []float64, W []int32) bool {
	aOnly, bOnly := s.Sides()
	total := 0.0
	for _, v := range W {
		total += w[v]
	}
	wa, wb := 0.0, 0.0
	for _, v := range aOnly {
		wa += w[v]
	}
	for _, v := range bOnly {
		wb += w[v]
	}
	lim := 2*total/3 + 1e-9*(total+1)
	return wa <= lim && wb <= lim
}

// Finder produces a w-balanced separation of G[W] for arbitrary weights w
// (indexed by global vertex id).
type Finder interface {
	FindSeparation(W []int32, w []float64) Separation
}

// BFSLayered finds balanced separations by removing a BFS layer of G[W]
// near the weight median, choosing among admissible layers the one with the
// cheapest vertex cost τ(v) = c(δ(v)). For bounded-degree mesh-like graphs
// whose BFS layers have O(n^{1/p}) vertices this realizes a p-separator
// theorem in the sense of Definition 35.
type BFSLayered struct {
	G *graph.Graph
	// Tau is the vertex cost; if nil, τ(v) = c(δ(v)) is used.
	Tau []float64
}

// NewBFSLayered returns a BFS-layer separator finder for g with the
// canonical vertex costs τ(v) = c(δ(v)) of Appendix A.3.
func NewBFSLayered(g *graph.Graph) *BFSLayered {
	tau := make([]float64, g.N())
	for v := int32(0); v < int32(g.N()); v++ {
		tau[v] = g.CostDegree(v)
	}
	return &BFSLayered{G: g, Tau: tau}
}

// FindSeparation implements Finder.
//
// If some connected component of G[W] carries more than 2/3 of the weight,
// a BFS layering of that component supplies the separator and the other
// components go to the lighter side. Otherwise components are packed
// greedily into two sides with an empty separator.
func (f *BFSLayered) FindSeparation(W []int32, w []float64) Separation {
	sub := graph.NewSub(f.G, W)
	defer sub.Release()
	comps := sub.Components()
	total := 0.0
	for _, v := range W {
		total += w[v]
	}
	var heavy []int32
	heavyW := 0.0
	for _, comp := range comps {
		cw := 0.0
		for _, v := range comp {
			cw += w[v]
		}
		if cw > heavyW {
			heavy, heavyW = comp, cw
		}
	}

	if heavyW <= 2*total/3 || len(comps) == 0 {
		// Greedy component packing, empty separator.
		type cc struct {
			verts []int32
			w     float64
		}
		list := make([]cc, len(comps))
		for i, comp := range comps {
			cw := 0.0
			for _, v := range comp {
				cw += w[v]
			}
			list[i] = cc{comp, cw}
		}
		sort.Slice(list, func(a, b int) bool { return list[a].w > list[b].w })
		var A, B []int32
		wa, wb := 0.0, 0.0
		for _, c := range list {
			if wa <= wb {
				A = append(A, c.verts...)
				wa += c.w
			} else {
				B = append(B, c.verts...)
				wb += c.w
			}
		}
		return Separation{A: A, B: B}
	}

	// Layer the heavy component from its smallest-id vertex.
	start := heavy[0]
	for _, v := range heavy {
		if v < start {
			start = v
		}
	}
	layers := bfsLayers(sub, start)

	// cum[i] = weight of layers < i within the heavy component.
	cum := make([]float64, len(layers)+1)
	layerW := make([]float64, len(layers))
	layerTau := make([]float64, len(layers))
	for i, L := range layers {
		for _, v := range L {
			layerW[i] += w[v]
			layerTau[i] += f.tau(v)
		}
		cum[i+1] = cum[i] + layerW[i]
	}
	compW := cum[len(layers)]
	restW := total - heavyW // other components

	// Admissible layers i: removing L_i splits W into
	// front = layers<i (+ maybe rest) and back = layers>i (+ maybe rest);
	// assign rest to the lighter side, then need both ≤ 2/3 total.
	bestI := -1
	bestCost := 0.0
	for i := range layers {
		front := cum[i]
		back := compW - cum[i+1]
		// Put the other components with the lighter side.
		if front <= back {
			front += restW
		} else {
			back += restW
		}
		lim := 2 * total / 3
		if front <= lim+1e-9*(total+1) && back <= lim+1e-9*(total+1) {
			if bestI < 0 || layerTau[i] < bestCost {
				bestI, bestCost = i, layerTau[i]
			}
		}
	}
	if bestI < 0 {
		// Fall back to the weight-median layer, which always balances the
		// heavy component itself (front < 1/3·comp ≤ 2/3·total, back ≤ 2/3).
		for i := range layers {
			if cum[i+1] >= compW/3 {
				bestI = i
				break
			}
		}
		if bestI < 0 {
			bestI = len(layers) - 1
		}
	}

	// Build the separation.
	sep := layers[bestI]
	inSep := make(map[int32]bool, len(sep))
	for _, v := range sep {
		inSep[v] = true
	}
	var front, back []int32
	for i, L := range layers {
		if i < bestI {
			front = append(front, L...)
		} else if i > bestI {
			back = append(back, L...)
		}
	}
	fw, bw := 0.0, 0.0
	for _, v := range front {
		fw += w[v]
	}
	for _, v := range back {
		bw += w[v]
	}
	for _, comp := range comps {
		if sameComp(comp, heavy) {
			continue
		}
		if fw <= bw {
			front = append(front, comp...)
			for _, v := range comp {
				fw += w[v]
			}
		} else {
			back = append(back, comp...)
			for _, v := range comp {
				bw += w[v]
			}
		}
	}
	A := append(append([]int32(nil), front...), sep...)
	B := append(append([]int32(nil), back...), sep...)
	return Separation{A: A, B: B}
}

func (f *BFSLayered) tau(v int32) float64 {
	if f.Tau != nil {
		return f.Tau[v]
	}
	return f.G.CostDegree(v)
}

func sameComp(a, b []int32) bool {
	return len(a) == len(b) && len(a) > 0 && a[0] == b[0]
}

// bfsLayers returns the BFS layers of the component of start within sub.
func bfsLayers(sub *graph.Sub, start int32) [][]int32 {
	visited := map[int32]bool{start: true}
	frontier := []int32{start}
	var layers [][]int32
	for len(frontier) > 0 {
		layers = append(layers, frontier)
		var next []int32
		for _, v := range frontier {
			for _, o := range sub.G.Neighbors(v) {
				if sub.Contains(o) && !visited[o] {
					visited[o] = true
					next = append(next, o)
				}
			}
		}
		frontier = next
	}
	return layers
}
