// Command perfbench is the repository's benchmark. One run measures one
// workload for a fixed time, checks every output it produces, and prints a
// table of its metrics followed, as the last line, by one JSON object:
//
//	{"correct": true, "attempted": 17, "failed": 0, "metrics": {"latency_ms_p50": {"value": 561.2, "unit": "ms"}, ...}}
//
// With -trace 0 the metrics are the end-to-end ones, measured untraced.
// With -trace 1 the run is traced from outside (see trace.go) and the
// metrics are the per-layer ones plus the tracing overhead. Workloads,
// the layer-to-metric map and the seeds are described in workloads.json.
//
// Run it through run.sh from the repository root, which builds it first;
// --workload all runs the four workloads in turn:
//
//	bash perfbench/run.sh --workload grid-ml --seed 1 --seconds 20 --trace 0
//
// The self-test runs every workload on tiny inputs:
//
//	cd perfbench && go test .
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"time"
)

// metricSpec names one metric and its unit.
type metricSpec struct{ name, unit string }

// endToEnd are the metrics a user of the system sees, emitted by every
// workload on an untraced run. Their names and units must match
// BENCHMARK.json (the self-test checks).
var endToEnd = []metricSpec{
	{"setup_s", "s"},
	{"alloc_mb_per_op", "MB"},
	{"rps", "1/s"},
	{"latency_ms_p50", "ms"},
	{"max_boundary_ratio", "ratio"},
}

// perLayer are the metrics of single layers, emitted by every workload on
// a traced run; a layer the workload does not exercise reports 0.
var perLayer = []metricSpec{
	{"coarsen.build_ms", "ms"},
	{"coarsen.match_ms", "ms"},
	{"coarsen.levels", "count"},
	{"coarsen.shrink_ratio", "ratio"},
	{"graph.contract_ms", "ms"},
	{"graph.stats_ms", "ms"},
	{"measure.pi_ms", "ms"},
	{"splitter.calls", "count"},
	{"splitter.split_ms", "ms"},
	{"splitter.inner_ms", "ms"},
	{"splitter.fm_ms", "ms"},
	{"grid.split_ms", "ms"},
	{"core.multibalance_ms", "ms"},
	{"core.almoststrict_ms", "ms"},
	{"core.strictpack_ms", "ms"},
	{"core.polish_ms", "ms"},
	{"core.coarsen_stage_ms", "ms"},
	{"core.oracle_calls", "count"},
	{"core.polish_rounds", "count"},
	{"core.polish_improved_ratio", "ratio"},
	{"core.verify_ms", "ms"},
	{"core.unattributed_ms", "ms"},
	{"core.par_speedup", "ratio"},
	{"service.cache_hit_ratio", "ratio"},
	{"service.coalesced", "count"},
	{"service.pipeline_runs", "count"},
	{"service.shed", "count"},
	{"service.busy_share", "ratio"},
	{"service.client_share", "ratio"},
	{"service.latency_ms_p99", "ms"},
	{"service.partition_ms_p50", "ms"},
	{"service.repartition_ms_p50", "ms"},
	{"service.churn_ms_p50", "ms"},
	{"service.upload_ms_p50", "ms"},
	{"store.records", "count"},
	{"store.bytes_per_record", "B"},
	{"store.snapshots", "count"},
	{"store.persist_errors", "count"},
	{"trace.overhead_ms", "ms"},
}

// config is one run's settings.
type config struct {
	seed    int64
	seconds time.Duration
	trace   bool
	// tiny shrinks every input so the self-test runs in seconds.
	tiny bool
	// tmp is the parent of the serve workload's per-run store directory.
	tmp string
	// spans, when set, receives the traced run's spans as JSON.
	spans string
	// clients overrides the serve workload's client count when positive.
	clients int
}

// par is the worker bound every workload runs at: one per CPU.
var par = runtime.NumCPU()

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the run's outcome, printed as the last line of output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`

	// samples holds the sample count behind each metric, for the table.
	samples map[string]int
	errs    []string
}

func newResult(specs []metricSpec) *result {
	r := &result{Metrics: map[string]metric{}, samples: map[string]int{}}
	for _, s := range specs {
		r.Metrics[s.name] = metric{Unit: s.unit}
	}
	return r
}

// set records a metric value with the number of samples behind it. Only
// names declared for the run's mode are accepted.
func (r *result) set(name string, v float64, samples int) {
	m, ok := r.Metrics[name]
	if !ok {
		return
	}
	m.Value = v
	r.Metrics[name] = m
	r.samples[name] = samples
}

// check counts one checked operation, failed when err is non-nil. A
// failed operation is never dropped from the count.
func (r *result) check(err error) {
	r.Attempted++
	if err != nil {
		r.Failed++
		if len(r.errs) < 8 {
			r.errs = append(r.errs, err.Error())
		}
	}
}

// workloads maps each workload name to its runner. A core workload's
// draw count is what keeps its figures steady across seeds: mesh-ml's
// strict-pack time varies about fourfold between draws, so it needs many.
var workloads = map[string]func(config) (*result, error){
	"grid-ml":     func(c config) (*result, error) { return runCore(c, gridML, 4) },
	"mesh-direct": func(c config) (*result, error) { return runCore(c, meshDirect, 4) },
	"mesh-ml":     func(c config) (*result, error) { return runCore(c, meshML, 16) },
	"serve":       runServe,
}

func main() {
	name := flag.String("workload", "", "workload to run: grid-ml, mesh-direct, mesh-ml, serve or all")
	seed := flag.Int64("seed", 1, "seed every input is generated from")
	seconds := flag.Float64("seconds", 20, "measurement time in seconds")
	trace := flag.Int("trace", 0, "1 traces the run and reports per-layer metrics")
	tmp := flag.String("tmp", os.TempDir(), "parent directory of per-run scratch directories")
	spans := flag.String("spans", "", "file the traced run's spans are written to")
	flag.Parse()

	_, ok := workloads[*name]
	if (!ok && *name != "all") || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "usage: perfbench --workload grid-ml|mesh-direct|mesh-ml|serve|all --seed N --seconds S --trace 0|1")
		os.Exit(2)
	}
	cfg := config{
		seed:    *seed,
		seconds: time.Duration(*seconds * float64(time.Second)),
		trace:   *trace == 1,
		tmp:     *tmp,
		spans:   *spans,
	}
	names := []string{*name}
	if *name == "all" {
		names = []string{"grid-ml", "mesh-direct", "mesh-ml", "serve"}
	}
	// With all, the last line merges the workloads' results, each metric
	// named <workload>.<metric>.
	all := &result{Metrics: map[string]metric{}, samples: map[string]int{}}
	for _, n := range names {
		res, err := workloads[n](cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", n, err)
			os.Exit(1)
		}
		printTable(n, res)
		all.Attempted += res.Attempted
		all.Failed += res.Failed
		for m, v := range res.Metrics {
			all.Metrics[n+"."+m] = v
		}
		if len(names) == 1 {
			all = res
		}
	}
	all.Correct = all.Failed == 0
	line, err := json.Marshal(all)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// printTable prints every metric by name with its unit and sample count,
// then any failed checks.
func printTable(workload string, r *result) {
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Printf("workload %s: %d ops attempted, %d failed\n", workload, r.Attempted, r.Failed)
	for _, n := range names {
		m := r.Metrics[n]
		fmt.Printf("  %-30s %14.4f %-6s n=%d\n", n, m.Value, m.Unit, r.samples[n])
	}
	for _, e := range r.errs {
		fmt.Println("  FAILED:", e)
	}
}
