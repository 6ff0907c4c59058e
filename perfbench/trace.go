package main

// Tracing from outside the program: every span here is recorded by the
// benchmark around a call into a layer's public surface — a repro.Observer
// stage event, a wrapped splitter.Splitter oracle, a wrapped loadgen.Target
// request, or a direct call the benchmark makes itself. Nothing inside the
// program is instrumented. Spans stay in memory for the whole run and are
// written out once, after measurement, when -spans names a file.

import (
	"context"
	"encoding/json"
	"net/http"
	"os"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/loadgen"
	"repro/internal/splitter"
)

// serverTrace is the trace id of stage spans a server-wide observer
// records: the server's Observer carries no request identity, so those
// spans cannot join the request span that caused them.
const serverTrace = -1

// span is one timed interval at a layer boundary. Spans of one solve or
// one request share Trace; Parent is the id of the enclosing span (0 for
// a root).
type span struct {
	Trace  int64  `json:"trace"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps every span of a run in memory. Safe for concurrent use.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens a span now and returns its id.
func (t *tracer) begin(trace int64, parent int, name string) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{
		Trace: trace, ID: len(t.spans) + 1, Parent: parent, Name: name,
		Start: time.Since(t.epoch).Nanoseconds(),
	})
	return len(t.spans)
}

// end closes the span with the given id now and returns its duration.
func (t *tracer) end(id int) time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &t.spans[id-1]
	s.End = time.Since(t.epoch).Nanoseconds()
	return s.dur()
}

// add records a span whose bounds are already known.
func (t *tracer) add(trace int64, parent int, name string, start, end time.Time) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{
		Trace: trace, ID: len(t.spans) + 1, Parent: parent, Name: name,
		Start: start.Sub(t.epoch).Nanoseconds(), End: end.Sub(t.epoch).Nanoseconds(),
	})
}

// time runs f inside a span.
func (t *tracer) time(trace int64, parent int, name string, f func()) time.Duration {
	id := t.begin(trace, parent, name)
	f()
	return t.end(id)
}

// sum totals the durations and counts the spans with the given name whose
// trace satisfies in.
func (t *tracer) sum(name string, in func(trace int64) bool) (time.Duration, int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	var d time.Duration
	n := 0
	for _, s := range t.spans {
		if s.Name == name && in(s.Trace) {
			d += s.dur()
			n++
		}
	}
	return d, n
}

// write dumps every span as JSON.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	data, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// stageObserver turns a run's repro.Observer events into spans. The
// events of one solve arrive in order from its driver goroutine, so a
// stack gives each stage its parent: the multilevel bracket encloses
// coarsening and the per-level stages, and the solve span encloses all.
// A server-wide observer (flat set) sees the interleaved events of
// concurrent requests, so it records each stage from its StageLeave
// duration instead, under serverTrace.
type stageObserver struct {
	t     *tracer
	trace int64
	root  int
	flat  bool

	mu       sync.Mutex
	stack    []int
	oracle   int64
	rounds   int
	improved int
}

var _ core.Observer = (*stageObserver)(nil)

func (o *stageObserver) StageEnter(s core.StageName) {
	if o.flat {
		return
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	o.stack = append(o.stack, o.t.begin(o.trace, o.current(), "core."+string(s)))
}

func (o *stageObserver) StageLeave(s core.StageName, took time.Duration) {
	if o.flat {
		end := time.Now()
		o.t.add(serverTrace, 0, "core."+string(s), end.Add(-took), end)
		return
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	o.t.end(o.stack[len(o.stack)-1])
	o.stack = o.stack[:len(o.stack)-1]
}

// current is the innermost open stage span, or the solve span; o.mu held.
func (o *stageObserver) current() int {
	if len(o.stack) == 0 {
		return o.root
	}
	return o.stack[len(o.stack)-1]
}

// parent is current for callers outside the observer: the oracle
// wrappers, whose calls land inside whichever stage is open.
func (o *stageObserver) parent() int {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.current()
}

func (o *stageObserver) OracleCall(int64) {
	o.mu.Lock()
	o.oracle++
	o.mu.Unlock()
}

func (o *stageObserver) PolishRound(_ int, improved bool) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.rounds++
	if improved {
		o.improved++
	}
}

// timedSplitter records every oracle call as a span. It only delegates,
// so the coloring is unchanged — the traced-versus-untraced byte check
// holds the benchmark to that.
type timedSplitter struct {
	inner splitter.Splitter
	obs   *stageObserver
	name  string
}

func (s timedSplitter) Split(ctx context.Context, W []int32, w []float64, target float64) []int32 {
	id := s.obs.t.begin(s.obs.trace, s.obs.parent(), s.name)
	defer s.obs.t.end(id)
	return s.inner.Split(ctx, W, w, target)
}

// timedTarget records every work request (POST) the load generator sends
// as a span; each request is its own trace. Stats probes pass untimed.
type timedTarget struct {
	inner loadgen.Target
	t     *tracer
	mu    sync.Mutex
	next  int64
}

func (tt *timedTarget) Do(method, path, contentType string, body []byte) (int, []byte, error) {
	if method != http.MethodPost {
		return tt.inner.Do(method, path, contentType, body)
	}
	tt.mu.Lock()
	tt.next++
	id := tt.next
	tt.mu.Unlock()
	defer tt.t.end(tt.t.begin(id, 0, "service.request"))
	return tt.inner.Do(method, path, contentType, body)
}
