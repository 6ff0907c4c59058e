package core

import (
	"context"
	"strings"
	"testing"
	"time"

	"repro/internal/splitter"
)

func TestDiagnosticsPopulated(t *testing.T) {
	gr, g := gridGraph(t, 16, 16)
	res, err := Decompose(context.Background(), g, Options{K: 8, Splitter: splitter.NewGrid(gr)})
	if err != nil {
		t.Fatal(err)
	}
	d := res.Diag
	if d.SplitterCalls == 0 {
		t.Fatal("no splitter calls recorded")
	}
	if d.Total <= 0 {
		t.Fatal("no total duration recorded")
	}
	if d.MultiBalance+d.AlmostStrict+d.StrictPack+d.Polish > 2*d.Total {
		t.Fatal("stage durations inconsistent with total")
	}
	s := d.String()
	if !strings.Contains(s, "splits=") || !strings.Contains(s, "total=") {
		t.Fatalf("diagnostics string %q malformed", s)
	}
}

func TestDiagnosticsOracleComplexity(t *testing.T) {
	// Theorem 4: oracle calls grow near-linearly with k (each color class
	// is split O(1) times per stage, plus O(log k) rebalance depth).
	gr, g := gridGraph(t, 24, 24)
	calls := func(k int) int64 {
		res, err := Decompose(context.Background(), g, Options{K: k, Splitter: splitter.NewGrid(gr)})
		if err != nil {
			t.Fatal(err)
		}
		return res.Diag.SplitterCalls
	}
	c4, c32 := calls(4), calls(32)
	if c32 <= c4 {
		t.Fatalf("oracle calls did not grow with k: %d vs %d", c4, c32)
	}
	// Near-linear in k: not more than ~k·polylog(k) growth.
	if c32 > 64*c4 {
		t.Fatalf("oracle calls grew superlinearly: k=4 → %d, k=32 → %d", c4, c32)
	}
}

// TestDiagnosticsTotalCoversPostlude pins that Diagnostics.Total is the
// run's wall time including the postlude: a run whose body leaves a
// broken prior as it is spends nearly all of its time in the strictness
// check and the chunked-greedy backstop, so Total must account for most
// of the wall time measured around the call.
func TestDiagnosticsTotalCoversPostlude(t *testing.T) {
	gr, g := gridGraph(t, 48, 48)
	opt := Options{K: 8, Parallelism: 1, Splitter: splitter.NewGrid(gr)}
	prior := make([]int32, g.N()) // one class: far from strict
	start := time.Now()
	keep := func(_ *ctx, chi []int32) ([]int32, error) { return chi, nil }
	res, err := run(context.Background(), g, opt, prior, true, keep)
	wall := time.Since(start)
	if err != nil {
		t.Fatal(err)
	}
	if !res.UsedFallback {
		t.Fatal("backstop did not run on a one-class prior")
	}
	if 2*res.Diag.Total < wall {
		t.Fatalf("Diagnostics.Total %v covers under half of the %v run", res.Diag.Total, wall)
	}
}
