package main

import (
	"encoding/json"
	"io"
	"strings"
	"sync"
	"time"
)

// maxSpans bounds the spans kept for the Chrome export; a fast workload
// issues hundreds of thousands of calls, so later spans are only counted
// (the aggregates below still see every one).
const maxSpans = 50000

// tracer records one span around every public call the harness makes.
// A nil *tracer records nothing, which is how untraced runs pay nothing.
type tracer struct {
	t0 time.Time

	mu      sync.Mutex
	nextID  uint64
	spans   []span
	dropped int
	agg     map[string]*spanAgg // by span name
}

type span struct {
	id, parent, op uint64
	cat, name      string
	start, end     time.Duration // since t0
}

type spanAgg struct {
	count int
	total time.Duration
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), agg: make(map[string]*spanAgg)}
}

// spanRef is an open span. The zero value (from a nil tracer) is inert.
type spanRef struct {
	t         *tracer
	id, op    uint64
	parent    uint64
	cat, name string
	start     time.Duration
}

// op opens the root span of one operation; its ID becomes the op ID that
// every span of the operation shares.
func (t *tracer) op(name string) spanRef {
	if t == nil {
		return spanRef{}
	}
	id := t.newID()
	return spanRef{t: t, id: id, op: id, cat: "op", name: name, start: time.Since(t.t0)}
}

// child opens a span for a call into layer cat, parented by s.
func (s spanRef) child(cat, name string) spanRef {
	if s.t == nil {
		return spanRef{}
	}
	return spanRef{t: s.t, id: s.t.newID(), op: s.op, parent: s.id, cat: cat, name: name, start: time.Since(s.t.t0)}
}

func (s spanRef) end() {
	if s.t == nil {
		return
	}
	end := time.Since(s.t.t0)
	t := s.t
	t.mu.Lock()
	defer t.mu.Unlock()
	a := t.agg[s.name]
	if a == nil {
		a = &spanAgg{}
		t.agg[s.name] = a
	}
	a.count++
	a.total += end - s.start
	if len(t.spans) >= maxSpans {
		t.dropped++
		return
	}
	t.spans = append(t.spans, span{id: s.id, parent: s.parent, op: s.op, cat: s.cat, name: s.name, start: s.start, end: end})
}

func (t *tracer) newID() uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.nextID++
	return t.nextID
}

// sum totals the spans whose name starts with prefix.
func (t *tracer) sum(prefix string) (count int, total time.Duration) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for name, a := range t.agg {
		if strings.HasPrefix(name, prefix) {
			count += a.count
			total += a.total
		}
	}
	return count, total
}

// writeChrome writes the kept spans as Chrome trace-event JSON (loadable
// in chrome://tracing or Perfetto): one complete event per span, one
// track per operation, with span, parent and op IDs in args.
func (t *tracer) writeChrome(w io.Writer) error {
	type event struct {
		Name string         `json:"name"`
		Cat  string         `json:"cat"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  uint64         `json:"tid"`
		Args map[string]any `json:"args"`
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	evs := make([]event, len(t.spans))
	for i, s := range t.spans {
		evs[i] = event{
			Name: s.name, Cat: s.cat, Ph: "X",
			Ts:  float64(s.start.Nanoseconds()) / 1e3,
			Dur: float64((s.end - s.start).Nanoseconds()) / 1e3,
			Pid: 1, Tid: s.op,
			Args: map[string]any{"span": s.id, "parent": s.parent, "op": s.op},
		}
	}
	return json.NewEncoder(w).Encode(map[string]any{
		"traceEvents":     evs,
		"displayTimeUnit": "ms",
		"otherData":       map[string]any{"dropped_spans": t.dropped},
	})
}
