package separator

import (
	"context"
	"math"

	"repro/internal/graph"
	"repro/internal/splitter"
)

// This file implements the two directions of Lemma 37.

// FromSplitter converts a splitting-set oracle into a balanced-separation
// routine (first half of Lemma 37): take a (‖w‖₁/3)-ish splitting set U,
// let X be the W-side endpoints of the cut edges δ_{G[W]}(U), and return
// (U ∪ X, W \ U). The separator cost is at most 2·φ_ℓ·∂_W U.
type FromSplitter struct {
	G *graph.Graph
	S splitter.Splitter
}

// FindSeparation implements Finder.
func (f *FromSplitter) FindSeparation(W []int32, w []float64) Separation {
	total, maxw := 0.0, 0.0
	var argmax int32 = -1
	for _, v := range W {
		total += w[v]
		if w[v] > maxw {
			maxw = w[v]
			argmax = v
		}
	}
	if len(W) == 0 {
		return Separation{}
	}
	// If one vertex dominates (w(v) > ‖w‖₁/3), ({v}, W) is balanced.
	if maxw > total/3 {
		return Separation{A: []int32{argmax}, B: append([]int32(nil), W...)}
	}
	U := f.S.Split(context.Background(), W, w, total/3)
	inU := make([]bool, f.G.N())
	for _, v := range U {
		inU[v] = true
	}
	inW := make([]bool, f.G.N())
	for _, v := range W {
		inW[v] = true
	}
	// X := endpoints (on the complement side) of cut edges, so that no edge
	// joins U and W \ (U ∪ X).
	var X []int32
	seen := make(map[int32]bool)
	for _, v := range U {
		for _, o := range f.G.Neighbors(v) {
			if inW[o] && !inU[o] && !seen[o] {
				seen[o] = true
				X = append(X, o)
			}
		}
	}
	var B []int32
	for _, v := range W {
		if !inU[v] {
			B = append(B, v)
		}
	}
	A := append(append([]int32(nil), U...), X...)
	// Clear scratch (inU, inW are local allocations; nothing to release).
	return Separation{A: A, B: B}
}

// SplitterFromSeparator converts a balanced-separation routine into a
// splitting-set oracle via the recursive procedure Split of Lemma 37
// (second half): recurse on the side containing the splitting value,
// balancing each separation with respect to the separating-cost measure
// π(v) = τ(v)^p so that costs decay geometrically, then top up with
// separator vertices.
type SplitterFromSeparator struct {
	G *graph.Graph
	F Finder
	// P is the Hölder exponent used for the π measure (default 2).
	P float64
}

// NewSplitterFromSeparator returns the Lemma 37 splitter with exponent p.
func NewSplitterFromSeparator(g *graph.Graph, f Finder, p float64) *SplitterFromSeparator {
	if p <= 1 {
		p = 2
	}
	return &SplitterFromSeparator{G: g, F: f, P: p}
}

// Split implements splitter.Splitter. The recursion checks ctx at every
// level, so a cancelled run unwinds without finishing the separator chain.
func (s *SplitterFromSeparator) Split(ctx context.Context, W []int32, w []float64, target float64) []int32 {
	if ctx.Err() != nil {
		return nil
	}
	total, maxw := 0.0, 0.0
	for _, v := range W {
		total += w[v]
		if w[v] > maxw {
			maxw = w[v]
		}
	}
	if target < 0 {
		target = 0
	}
	if target > total {
		target = total
	}
	// π(v) = τ(v)^p with τ(v) = c(δ(v)).
	pi := make([]float64, s.G.N())
	for _, v := range W {
		pi[v] = math.Pow(s.G.CostDegree(v), s.P)
	}
	A0, B0 := s.split(ctx, W, w, pi, target, maxw, 0)
	if ctx.Err() != nil {
		return nil
	}

	// Assemble the splitting set: A0\B0 plus a weight prefix of the
	// separator, choosing the cumulative weight nearest the target.
	sep := Separation{A: A0, B: B0}
	aOnly, _ := sep.Sides()
	order := append([]int32(nil), aOnly...)
	order = append(order, sep.Separator()...)
	return splitter.BestPrefix(order, w, target)
}

// split is procedure Split of Lemma 37: returns a separation (A0, B0) of
// G[W] with w(A0\B0) ≤ target ≤ w(A0) (up to ‖w‖∞/2 slack at the ends).
func (s *SplitterFromSeparator) split(ctx context.Context, W []int32, w, pi []float64, target, maxw float64, depth int) (A0, B0 []int32) {
	// Trivial cases: no separating cost, tiny sets, cancellation, or
	// recursion guard.
	piTotal := 0.0
	for _, v := range W {
		piTotal += pi[v]
	}
	if piTotal == 0 || len(W) <= 2 || depth > 64 || ctx.Err() != nil {
		return append([]int32(nil), W...), append([]int32(nil), W...)
	}
	sep := s.F.FindSeparation(W, pi)
	aOnly, bOnly := sep.Sides()
	if len(aOnly) == 0 && len(bOnly) == 0 {
		// Degenerate separation: everything in the separator.
		return append([]int32(nil), W...), append([]int32(nil), W...)
	}
	wa := 0.0
	for _, v := range aOnly {
		wa += w[v]
	}
	wsep := 0.0
	S := sep.Separator()
	for _, v := range S {
		wsep += w[v]
	}
	switch {
	case target-maxw/2 < wa:
		Ap, Bp := s.split(ctx, aOnly, w, pi, target, maxw, depth+1)
		// (A0, B0) := (A' ∪ (A∩B), B' ∪ B)
		A0 = append(append([]int32(nil), Ap...), S...)
		B0 = append(append([]int32(nil), Bp...), sep.B...)
		return dedup(A0), dedup(B0)
	case wa+wsep >= target-maxw/2:
		return sep.A, sep.B
	default:
		Ap, Bp := s.split(ctx, bOnly, w, pi, target-wa-wsep, maxw, depth+1)
		// (A0, B0) := (A ∪ A', B' ∪ (A∩B))
		A0 = append(append([]int32(nil), sep.A...), Ap...)
		B0 = append(append([]int32(nil), Bp...), S...)
		return dedup(A0), dedup(B0)
	}
}

func dedup(vs []int32) []int32 {
	seen := make(map[int32]bool, len(vs))
	out := vs[:0]
	for _, v := range vs {
		if !seen[v] {
			seen[v] = true
			out = append(out, v)
		}
	}
	return out
}
