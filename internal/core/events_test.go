package core

import (
	"context"
	"fmt"
	"regexp"
	"strings"
	"testing"
	"time"

	"repro/internal/graph"
	"repro/internal/workload"
)

// eventLog renders the Observer's stage bracket as "name{" on enter and
// "}" on leave, so a run's whole stage shape reads as one string.
type eventLog struct {
	NopObserver
	b strings.Builder
}

func (l *eventLog) StageEnter(s StageName)              { l.b.WriteString(string(s) + "{") }
func (l *eventLog) StageLeave(StageName, time.Duration) { l.b.WriteString("}") }

// TestStageEventSequences pins the exact enter/leave sequence of every
// entry path: which stages run, in which order, and that the ablations
// keep their stage's events firing with a pass-through body.
func TestStageEventSequences(t *testing.T) {
	const k = 8
	g := workload.ClimateMesh(24, 24, 3, 7)
	base, err := Decompose(context.Background(), g, Options{K: k, Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	w2 := append([]float64(nil), g.Weight...)
	for v := range w2 {
		if v%3 == 0 {
			w2[v] *= 4
		}
	}
	drifted := g.WithWeights(w2)
	if graph.IsStrictlyBalanced(drifted, base.Coloring, k) {
		t.Fatal("drifted prior is still strict; the broken-prior cases would not rebalance")
	}
	dirty := []int32{0, 5, 17, 300}

	observe := func(opt Options, call func(Options) (Result, error)) (string, Result) {
		t.Helper()
		var log eventLog
		opt.K, opt.Parallelism, opt.Observer = k, 1, &log
		res, err := call(opt)
		if err != nil {
			t.Fatal(err)
		}
		return log.b.String(), res
	}
	decompose := func(opt Options) (Result, error) { return Decompose(context.Background(), g, opt) }
	refine := func(g *graph.Graph) func(Options) (Result, error) {
		return func(opt Options) (Result, error) { return Refine(context.Background(), g, opt, base.Coloring) }
	}
	refineLocal := func(g *graph.Graph) func(Options) (Result, error) {
		return func(opt Options) (Result, error) {
			return RefineLocal(context.Background(), g, opt, base.Coloring, dirty)
		}
	}

	const (
		direct    = "multibalance{}almoststrict{}strictpack{}polish{}"
		rebalance = "almoststrict{}strictpack{}polish{}"
		polish    = "polish{}"
	)
	cases := []struct {
		name string
		opt  Options
		call func(Options) (Result, error)
		want string
	}{
		{"decompose", Options{}, decompose, direct},
		{"decompose/skip-polish", Options{SkipPolish: true}, decompose, direct},
		{"refine/strict-prior", Options{}, refine(g), polish},
		{"refine/broken-prior", Options{}, refine(drifted), rebalance},
		{"refine/broken-prior/skip-shrink", Options{SkipShrink: true}, refine(drifted), rebalance},
		{"refine-local/strict-prior", Options{}, refineLocal(g), polish},
		{"refine-local/broken-prior", Options{}, refineLocal(drifted), rebalance},
	}
	for _, tc := range cases {
		if got, _ := observe(tc.opt, tc.call); got != tc.want {
			t.Errorf("%s: stage events %q, want %q", tc.name, got, tc.want)
		}
	}

	// Multilevel: one bracket around coarsening, the four-stage coarsest
	// solve and exactly one refine group per hierarchy level, each group
	// being polish alone (strict projected prior) or Propositions 11 and
	// 12 before it.
	mesh := workload.ClimateMesh(40, 40, 4, 11)
	var log eventLog
	res, err := Decompose(context.Background(), mesh, Options{
		K: k, Parallelism: 1, Observer: &log, Multilevel: &Multilevel{MinVertices: 128},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Diag.Levels < 2 {
		t.Fatalf("hierarchy has %d levels; the case needs at least 2", res.Diag.Levels)
	}
	re := regexp.MustCompile(fmt.Sprintf(`^multilevel\{coarsen\{\}%s((almoststrict\{\}strictpack\{\})?polish\{\}){%d}\}$`,
		regexp.QuoteMeta(direct), res.Diag.Levels))
	if got := log.b.String(); !re.MatchString(got) {
		t.Errorf("multilevel stage events %q do not match %s", got, re)
	}
}
