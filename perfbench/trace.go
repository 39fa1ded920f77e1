package main

import "sync"

// The traced run records spans from the benchmark's own code around
// every call it makes into a module of the program: setup calls, each
// scheduler call (RunRound / RunUntilIdle) with the harness's Backend
// Recv/Send callbacks as child spans, and each control operation. The
// program itself carries no tracing. Spans are aggregated per name as
// they close (count, total, self time) and the first maxSpans are also
// kept raw, in memory, and written out when the run ends.

// span is one recorded interval; Parent indexes the raw span list (-1
// for a root, or a parent that was not kept).
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
}

// spanAgg is the per-name aggregate.
type spanAgg struct {
	Count int64 `json:"count"`
	Total int64 `json:"total_ns"`
	Self  int64 `json:"self_ns"`
}

// tracer is nil in untraced runs; every method is nil-safe so the call
// sites stay one line.
type tracer struct {
	mu       sync.Mutex // serve-churn records from several goroutines
	maxSpans int
	spans    []span
	agg      map[string]*spanAgg
	base     map[string]*spanAgg // aggregates at mark

	// The open parent span (one level: scheduler calls and control ops
	// are roots, Backend callbacks their children).
	open      bool
	openName  string
	openStart int64
	openIdx   int
	childSum  int64
}

func newTracer(maxSpans int) *tracer {
	return &tracer{maxSpans: maxSpans, agg: map[string]*spanAgg{}}
}

func (t *tracer) add(name string, start, end, self int64, parent int) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	a := t.agg[name]
	if a == nil {
		a = &spanAgg{}
		t.agg[name] = a
	}
	a.Count++
	a.Total += end - start
	a.Self += self
	if len(t.spans) >= t.maxSpans {
		return -1
	}
	t.spans = append(t.spans, span{Name: name, Start: start, End: end, Parent: parent})
	return len(t.spans) - 1
}

// record closes a root span with no children.
func (t *tracer) record(name string, start, end int64) {
	if t == nil {
		return
	}
	t.add(name, start, end, end-start, -1)
}

// begin opens a parent span. Parent spans are used from one goroutine
// at a time (the run loop); root and child spans from any.
func (t *tracer) begin(name string, start int64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.open, t.openName, t.openStart, t.childSum = true, name, start, 0
	t.openIdx = -1
	if len(t.spans) < t.maxSpans {
		t.spans = append(t.spans, span{Name: name, Start: start, Parent: -1})
		t.openIdx = len(t.spans) - 1
	}
}

// end closes the open parent span; its self time excludes its
// children.
func (t *tracer) end(stop int64) {
	if t == nil || !t.open {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.open = false
	a := t.agg[t.openName]
	if a == nil {
		a = &spanAgg{}
		t.agg[t.openName] = a
	}
	a.Count++
	a.Total += stop - t.openStart
	a.Self += stop - t.openStart - t.childSum
	if t.openIdx >= 0 {
		t.spans[t.openIdx].End = stop
	}
}

// child records a span inside the open parent (or a root span when
// none is open).
func (t *tracer) child(name string, start, end int64) {
	if t == nil {
		return
	}
	parent := -1
	if t.open {
		t.childSum += end - start
		parent = t.openIdx
	}
	t.add(name, start, end, end-start, parent)
}

// get returns a name's aggregate since the last mark (zero if never
// recorded).
func (t *tracer) get(name string) spanAgg {
	if t == nil {
		return spanAgg{}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.agg[name] == nil {
		return spanAgg{}
	}
	a := *t.agg[name]
	if b := t.base[name]; b != nil {
		a.Count -= b.Count
		a.Total -= b.Total
		a.Self -= b.Self
	}
	return a
}

// mark starts the timed phase: aggregates read through get count from
// here on, and raw spans recorded during the warm-up are dropped (the
// setup spans before the first scheduler call stay).
func (t *tracer) mark(keepRaw int) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.base = map[string]*spanAgg{}
	for k, v := range t.agg {
		c := *v
		t.base[k] = &c
	}
	if keepRaw < len(t.spans) {
		t.spans = t.spans[:keepRaw]
	}
	t.open = false
}

// traceDoc is the span file's layout.
type traceDoc struct {
	Workload string              `json:"workload"`
	Seed     int64               `json:"seed"`
	Totals   map[string]*spanAgg `json:"totals"`
	Spans    []span              `json:"spans"`
}
