package graph

import (
	"fmt"
	"math"
)

// This file provides the coloring vocabulary of Section 2: k-colorings
// χ : V → [k], the strict-balance condition of Definition 1, and summary
// statistics ‖∂χ⁻¹‖∞, ‖∂χ⁻¹‖avg, ‖wχ⁻¹‖∞.

// Uncolored marks a vertex not yet assigned a color class.
const Uncolored int32 = -1

// NewColoring returns an all-Uncolored coloring for n vertices.
func NewColoring(n int) []int32 {
	c := make([]int32, n)
	for i := range c {
		c[i] = Uncolored
	}
	return c
}

// ColoringStats summarizes a k-coloring of a weighted, costed graph.
type ColoringStats struct {
	K int

	// ClassWeight[i] = w(χ⁻¹(i)).
	ClassWeight []float64
	// ClassBoundary[i] = ∂(χ⁻¹(i)) = c(δ(χ⁻¹(i))).
	ClassBoundary []float64

	AvgWeight   float64 // ‖w‖₁ / k
	MaxWeight   float64 // ‖wχ⁻¹‖∞
	MinWeight   float64 // min_i w(χ⁻¹(i))
	MaxBoundary float64 // ‖∂χ⁻¹‖∞
	AvgBoundary float64 // ‖∂χ⁻¹‖avg = ‖∂χ⁻¹‖₁ / k

	// MaxWeightDeviation = max_i |w(χ⁻¹(i)) − ‖w‖₁/k|.
	MaxWeightDeviation float64
	// StrictBound = (1 − 1/k)·‖w‖∞, the right side of Definition 1.
	StrictBound float64
	// StrictlyBalanced reports whether inequality (1) of Definition 1 holds
	// (with a tiny relative tolerance for floating-point accumulation).
	StrictlyBalanced bool
}

// Stats computes summary statistics for a coloring. All vertices must be
// colored with values in [0, k).
func Stats(g *Graph, coloring []int32, k int) ColoringStats {
	b := CheckBalance(g, coloring, k)
	st := ColoringStats{
		K:                  k,
		ClassWeight:        b.ClassWeight,
		ClassBoundary:      g.ClassBoundaryCosts(coloring, k),
		AvgWeight:          b.AvgWeight,
		MinWeight:          math.Inf(1),
		MaxWeightDeviation: b.MaxWeightDeviation,
		StrictBound:        b.StrictBound,
		StrictlyBalanced:   b.StrictlyBalanced,
	}
	for _, w := range st.ClassWeight {
		if w > st.MaxWeight {
			st.MaxWeight = w
		}
		if w < st.MinWeight {
			st.MinWeight = w
		}
	}
	for _, cb := range st.ClassBoundary {
		if cb > st.MaxBoundary {
			st.MaxBoundary = cb
		}
		st.AvgBoundary += cb
	}
	st.AvgBoundary /= float64(k)
	return st
}

// Balance is the weight-only part of ColoringStats: everything Definition 1
// needs, from one pass over the vertices and none over the edges.
type Balance struct {
	// ClassWeight[i] = w(χ⁻¹(i)).
	ClassWeight []float64
	// AvgWeight = ‖w‖₁ / k.
	AvgWeight float64
	// MaxWeightDeviation = max_i |w(χ⁻¹(i)) − ‖w‖₁/k|.
	MaxWeightDeviation float64
	// StrictBound = (1 − 1/k)·‖w‖∞, the right side of Definition 1.
	StrictBound float64
	// Tol is the float tolerance every balance predicate adds to its bound.
	Tol float64
	// StrictlyBalanced reports whether inequality (1) of Definition 1 holds
	// within Tol.
	StrictlyBalanced bool
}

// CheckBalance computes the class weights of a coloring and its
// Definition 1 verdict, with exactly the arithmetic of Stats. Uncolored
// vertices count toward no class.
func CheckBalance(g *Graph, coloring []int32, k int) Balance {
	b := Balance{ClassWeight: g.ClassWeights(coloring, k)}
	var maxw float64
	b.AvgWeight, maxw, b.Tol = window(g, k)
	b.StrictBound = (1 - 1/float64(k)) * maxw
	b.MaxWeightDeviation = maxDeviation(b.ClassWeight, b.AvgWeight)
	b.StrictlyBalanced = b.MaxWeightDeviation <= b.StrictBound+b.Tol
	return b
}

// window is the one place the balance predicates derive their bounds from
// g: the average class weight ‖w‖₁/k, the maximum vertex weight ‖w‖∞, and
// the float tolerance 1e-9·(‖w‖₁/k + ‖w‖∞ + 1) that absorbs accumulation
// error in the class sums.
func window(g *Graph, k int) (avg, maxw, tol float64) {
	avg = g.TotalWeight() / float64(k)
	maxw = g.MaxWeight()
	return avg, maxw, 1e-9 * (avg + maxw + 1)
}

// maxDeviation returns max_i |cw[i] − avg|.
func maxDeviation(cw []float64, avg float64) float64 {
	dev := 0.0
	for _, w := range cw {
		if d := math.Abs(w - avg); d > dev {
			dev = d
		}
	}
	return dev
}

// CheckColoring verifies that every vertex is colored with a value in
// [0, k) and returns an error describing the first violation.
func CheckColoring(coloring []int32, k int) error {
	for v, c := range coloring {
		if c < 0 || int(c) >= k {
			return fmt.Errorf("graph: vertex %d has color %d, want [0,%d)", v, c, k)
		}
	}
	return nil
}

// IsStrictlyBalanced reports whether the coloring satisfies Definition 1:
// max_i |w(χ⁻¹(i)) − ‖w‖₁/k| ≤ (1 − 1/k)·‖w‖∞ (with float tolerance). It
// reads only the vertex weights, never the edges.
func IsStrictlyBalanced(g *Graph, coloring []int32, k int) bool {
	return CheckBalance(g, coloring, k).StrictlyBalanced
}

// IsAlmostStrictlyBalanced reports the Section 4 relaxation: every class
// weight within 2·‖w‖∞ of the average (with float tolerance). Like
// IsStrictlyBalanced it reads only the vertex weights.
func IsAlmostStrictlyBalanced(g *Graph, coloring []int32, k int) bool {
	avg, maxw, tol := window(g, k)
	return maxDeviation(g.ClassWeights(coloring, k), avg) <= 2*maxw+tol
}

// ClassList returns the vertex lists of each color class. Uncolored
// vertices are skipped.
func ClassList(coloring []int32, k int) [][]int32 {
	out := make([][]int32, k)
	for v, c := range coloring {
		if c >= 0 {
			out[c] = append(out[c], int32(v))
		}
	}
	return out
}
