package main

import (
	"context"
	"encoding/json"
	"os"
	"sort"
	"testing"
	"time"

	"repro"
)

// tiny is the self-test configuration: shrunken inputs, short runs.
func tiny(t *testing.T, trace bool) config {
	return config{seed: 1, seconds: 200 * time.Millisecond, trace: trace, tiny: true, tmp: t.TempDir()}
}

// benchmarkFile is the subset of BENCHMARK.json the program must agree with.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name  string  `json:"name"`
		Unit  string  `json:"unit"`
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func TestNamesMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range bf.Workloads {
		names = append(names, w.Name)
	}
	var want []string
	for n := range workloads {
		want = append(want, n)
	}
	sort.Strings(names)
	sort.Strings(want)
	if len(names) != len(want) {
		t.Fatalf("BENCHMARK.json workloads %v, program %v", names, want)
	}
	for i := range names {
		if names[i] != want[i] {
			t.Fatalf("BENCHMARK.json workloads %v, program %v", names, want)
		}
	}
	same := func(kind string, file map[string]string, prog []metricSpec) {
		if len(file) != len(prog) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, program %d", kind, len(file), len(prog))
		}
		for _, m := range prog {
			if u, ok := file[m.name]; !ok || u != m.unit {
				t.Errorf("%s: %s [%s] in program, BENCHMARK.json has unit %q (present %v)", kind, m.name, m.unit, u, ok)
			}
		}
	}
	e2e := map[string]string{}
	for _, m := range bf.EndToEnd {
		e2e[m.Name] = m.Unit
	}
	layer := map[string]string{}
	for _, m := range bf.PerLayer {
		layer[m.Name] = m.Unit
	}
	same("end_to_end", e2e, endToEnd)
	same("per_layer", layer, perLayer)
}

// exercised lists, per workload, the per-layer metrics that must be
// non-zero because the workload runs that layer (workloads.json).
var exercised = map[string][]string{
	"grid-ml": {"coarsen.build_ms", "coarsen.levels", "graph.contract_ms", "graph.stats_ms",
		"measure.pi_ms", "core.polish_ms", "core.coarsen_stage_ms", "core.oracle_calls",
		"core.verify_ms", "core.par_speedup"},
	"mesh-direct": {"splitter.calls", "splitter.split_ms", "splitter.inner_ms", "graph.stats_ms",
		"measure.pi_ms", "core.multibalance_ms", "core.oracle_calls", "core.verify_ms", "core.par_speedup"},
	"mesh-ml": {"coarsen.build_ms", "coarsen.levels", "graph.contract_ms", "core.strictpack_ms",
		"core.coarsen_stage_ms", "core.oracle_calls", "core.par_speedup"},
	"serve": {"service.cache_hit_ratio", "service.pipeline_runs", "service.busy_share",
		"service.client_share", "service.partition_ms_p50", "service.repartition_ms_p50",
		"service.churn_ms_p50", "service.upload_ms_p50", "store.records", "store.bytes_per_record",
		"core.polish_rounds"},
}

func TestTinyWorkloadsEmitEveryMetric(t *testing.T) {
	for name, run := range workloads {
		for _, trace := range []bool{false, true} {
			res, err := run(tiny(t, trace))
			if err != nil {
				t.Fatalf("%s trace=%v: %v", name, trace, err)
			}
			if res.Attempted < 1 || res.Failed != 0 {
				t.Errorf("%s trace=%v: %d attempted, %d failed: %v", name, trace, res.Attempted, res.Failed, res.errs)
			}
			specs := endToEnd
			if trace {
				specs = perLayer
			}
			if len(res.Metrics) != len(specs) {
				t.Errorf("%s trace=%v: %d metrics, want %d", name, trace, len(res.Metrics), len(specs))
			}
			for _, s := range specs {
				m, ok := res.Metrics[s.name]
				if !ok || m.Unit != s.unit {
					t.Errorf("%s trace=%v: metric %s = %+v, want unit %s", name, trace, s.name, m, s.unit)
				}
				if !trace && m.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", name, s.name, m.Value)
				}
			}
			if trace {
				for _, n := range exercised[name] {
					if res.Metrics[n].Value == 0 {
						t.Errorf("%s: per-layer metric %s is 0 on a workload that runs its layer", name, n)
					}
				}
			}
		}
	}
}

func TestTamperedColoringFails(t *testing.T) {
	in := meshDirect(1, true)
	r, err := repro.NewEngine().PartitionWithOptions(context.Background(), in.g, in.opt)
	if err != nil {
		t.Fatal(err)
	}
	res := newResult(endToEnd)
	_, err = checkSolve(in.g, in.opt, r, nil, r.Coloring)
	res.check(err)
	tampered := r
	tampered.Coloring = append([]int32(nil), r.Coloring...)
	tampered.Coloring[0] = (tampered.Coloring[0] + 1) % k
	_, err = checkSolve(in.g, in.opt, tampered, nil, r.Coloring)
	res.check(err)
	if res.Attempted != 2 || res.Failed != 1 {
		t.Fatalf("attempted %d failed %d, want 2 and 1 (the tampered coloring)", res.Attempted, res.Failed)
	}
}

// TestServeRunsAreIsolated pins that each serve run starts from an empty
// store: a reused store replays the previous run's results, which raised
// the cache-hit ratio to 1. One client keeps the two runs' request order,
// and so their counters, identical.
func TestServeRunsAreIsolated(t *testing.T) {
	cfg := tiny(t, true)
	cfg.clients = 1
	first, err := runServe(cfg)
	if err != nil {
		t.Fatal(err)
	}
	second, err := runServe(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []string{"service.cache_hit_ratio", "store.records"} {
		if a, b := first.Metrics[n].Value, second.Metrics[n].Value; a != b {
			t.Errorf("%s: first run %v, second run %v", n, a, b)
		}
	}
	left, err := os.ReadDir(cfg.tmp)
	if err != nil {
		t.Fatal(err)
	}
	if len(left) != 0 {
		t.Errorf("%d store directories left behind", len(left))
	}
}
