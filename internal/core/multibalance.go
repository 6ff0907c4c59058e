package core

// This file implements Lemma 6 (multi-balanced colorings with small
// *average* boundary cost) and Proposition 7 (multi-balanced colorings with
// small *maximum* boundary cost), Section 3.

// multiBalanced computes a k-coloring balanced with respect to every
// measure in ms: ‖Φ⁽ʲ⁾χ⁻¹‖∞ = O_r(‖Φ⁽ʲ⁾‖avg + ‖Φ⁽ʲ⁾‖∞), with average
// boundary cost O_r(σ_p·q·k^{−1/p}·‖c‖_p) — Lemma 6.
//
// The induction of the paper runs Lemma 9 once per measure, last to first,
// so each rebalance preserves the measures already balanced.
func (c *ctx) multiBalanced(k int, ms [][]float64) []int32 {
	// Induction basis r = 0: the trivial coloring (everything color 0).
	chi := make([]int32, c.g.N())
	for j := len(ms) - 1; j >= 0; j-- {
		chi = c.rebalance(chi, k, ms[j], ms[j+1:], nil)
	}
	return chi
}

// minMaxBalanced computes a k-coloring balanced with respect to the user
// measures AND the splitting-cost measure π, whose *maximum* boundary cost
// is O_r(σ_p·(q·k^{−1/p}·‖c‖_p + Δ_c)) — Proposition 7.
//
// Following the paper's proof: first obtain a Lemma 6 coloring χ balanced
// w.r.t. π and the user measures (so every class can be split at cost
// O(B′)); then rebalance with Ψ = the χ-bichromatic incidence measure
// (which equals the boundary cost on unions of χ-classes), preserving π and
// the user measures and adding the dynamic measure Φ⁽ʳ⁺¹⁾ that controls the
// χ-monochromatic boundary ∂′Vin(i) along the forest.
func (c *ctx) minMaxBalanced(k int, user [][]float64) []int32 {
	ms := make([][]float64, 0, len(user)+1)
	ms = append(ms, c.splittingCost())
	ms = append(ms, user...)
	chi := c.multiBalanced(k, ms)

	// Ψ(v) = c({uv ∈ E : χ(u) ≠ χ(v)}): ‖Ψχ⁻¹‖∞ = ‖∂χ⁻¹‖∞,
	// ‖Ψ‖avg = ‖∂χ⁻¹‖avg, ‖Ψ‖∞ ≤ Δ_c.
	psi := c.g.BichromaticIncidence(chi)

	// E′ = χ-monochromatic edges; ∂′U = c(δ(U) ∩ E′).
	mono := make([]bool, c.g.M())
	for e := range mono {
		u, v := c.g.Endpoints(int32(e))
		mono[e] = chi[u] == chi[v]
	}

	// Dynamic measure for a Move on color i with incoming set Vin(i):
	// Φ⁽ʳ⁺¹⁾(v) = c(δ(v) ∩ δ(Vin(i)) ∩ E′) for v ∈ Vin(i), else 0.
	dynamic := func(vinSet []int32) []float64 {
		phi := make([]float64, c.g.N())
		if len(vinSet) == 0 {
			return phi
		}
		in := make(map[int32]bool, len(vinSet))
		for _, v := range vinSet {
			in[v] = true
		}
		for _, v := range vinSet {
			nb := c.g.Neighbors(v)
			for i, e := range c.g.IncidentEdges(v) {
				if mono[e] && !in[nb[i]] {
					phi[v] += c.g.Cost[e]
				}
			}
		}
		return phi
	}

	return c.rebalance(chi, k, psi, ms, dynamic)
}
