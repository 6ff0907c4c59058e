package graph

import (
	"math"
	"math/rand"
	"testing"
)

// statsVerdicts derives both balance verdicts from Stats, the reference
// the weight-only predicates must reproduce: Definition 1 is Stats'
// StrictlyBalanced, and the Section 4 relaxation is the same deviation
// against 2·‖w‖∞ under the same tolerance.
func statsVerdicts(g *Graph, chi []int32, k int) (strict, almost bool) {
	st := Stats(g, chi, k)
	tol := 1e-9 * (st.AvgWeight + g.MaxWeight() + 1)
	return st.StrictlyBalanced, st.MaxWeightDeviation <= 2*g.MaxWeight()+tol
}

// checkVerdicts fails the test when a weight-only predicate disagrees
// with Stats on (g, chi, k).
func checkVerdicts(t *testing.T, g *Graph, chi []int32, k int, what string) {
	t.Helper()
	strict, almost := statsVerdicts(g, chi, k)
	if got := IsStrictlyBalanced(g, chi, k); got != strict {
		t.Fatalf("%s: IsStrictlyBalanced = %v, Stats says %v", what, got, strict)
	}
	if got := IsAlmostStrictlyBalanced(g, chi, k); got != almost {
		t.Fatalf("%s: IsAlmostStrictlyBalanced = %v, Stats says %v", what, got, almost)
	}
	b := CheckBalance(g, chi, k)
	st := Stats(g, chi, k)
	if b.MaxWeightDeviation != st.MaxWeightDeviation || b.StrictBound != st.StrictBound || b.AvgWeight != st.AvgWeight {
		t.Fatalf("%s: CheckBalance window (%v, %v, %v) != Stats (%v, %v, %v)", what,
			b.MaxWeightDeviation, b.StrictBound, b.AvgWeight, st.MaxWeightDeviation, st.StrictBound, st.AvgWeight)
	}
}

// Property: on random weighted trees with random (often skewed) colorings,
// both weight-only predicates agree with the Stats verdicts.
func TestBalancePredicatesMatchStats(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 500; trial++ {
		n := 2 + rng.Intn(60)
		k := 1 + rng.Intn(8)
		g := RandomTree(n, int64(trial))
		for v := range g.Weight {
			g.Weight[v] = math.Exp(rng.NormFloat64())
		}
		// Skew: class 0 is favored by a random amount, so both verdicts
		// come out true and false across the trials.
		skew := rng.Float64()
		chi := make([]int32, n)
		for v := range chi {
			if rng.Float64() >= skew {
				chi[v] = int32(rng.Intn(k))
			}
		}
		checkVerdicts(t, g, chi, k, "random")
	}
}

// Borderline: vertex 1's weight t is tuned, by bisection over adjacent
// float64 values, to the exact point where a Stats verdict flips, i.e.
// where the deviation meets window + tolerance. The predicates must agree
// with Stats on every value within a few ulps either side.
func TestBalancePredicatesMatchStatsAtTheBoundary(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	found := [2]int{}
	for trial := 0; trial < 400; trial++ {
		n := 4 + rng.Intn(20)
		k := 2 + rng.Intn(5)
		g := Path(n)
		// Vertex 0 carries ‖w‖∞; t ranges below it, so the window is fixed
		// while the deviation moves.
		heavy := 10 * (1 + rng.Float64())
		g.Weight[0] = heavy
		for v := 2; v < n; v++ {
			g.Weight[v] = heavy * rng.Float64()
		}
		chi := make([]int32, n)
		for v := range chi {
			chi[v] = int32(rng.Intn(k))
		}
		chi[1] = 0
		for which := 0; which < 2; which++ {
			verdict := func(x float64) bool {
				g.Weight[1] = x
				s, a := statsVerdicts(g, chi, k)
				return []bool{s, a}[which]
			}
			lo, hi := 0.0, heavy
			if verdict(lo) == verdict(hi) {
				continue
			}
			vlo := verdict(lo)
			for {
				mid := lo + (hi-lo)/2
				if mid == lo || mid == hi {
					break
				}
				if verdict(mid) == vlo {
					lo = mid
				} else {
					hi = mid
				}
			}
			found[which]++
			x := lo
			for i := 0; i < 8; i++ {
				x = math.Nextafter(x, math.Inf(-1))
			}
			for i := 0; i < 17; i++ {
				g.Weight[1] = x
				checkVerdicts(t, g, chi, k, "borderline")
				x = math.Nextafter(x, math.Inf(1))
			}
		}
	}
	if found[0] < 20 || found[1] < 20 {
		t.Fatalf("only %d strict and %d almost-strict borderline cases constructed, want ≥ 20 each", found[0], found[1])
	}
}
