package obs

// Trace context. The TraceStore is the one trace model: it records the
// shape of a request as one trace per X-Trace-Id, made of spans with
// explicit parent links — request → job queue-wait → run → experiment
// → round → frame, or request → sweep → cell → … — so one sweep cell
// can be followed from the HTTP edge down to its frames on one clock.
// Traces and spans are bounded; when a trace is full new spans are
// dropped (and counted) rather than evicting the roots, which are the
// joins everything else hangs off.
//
// The disabled path is a zero SpanContext, which a nil store hands
// out: it is inert at zero cost and allocates nothing, so
// instrumentation can stay threaded through the hot path permanently.

import (
	"context"
	"fmt"
	"math/rand/v2"
	"sync"
	"sync/atomic"
	"time"
)

// MaxSpanAttrs bounds the attribute set of one span; attributes beyond
// it are silently dropped (spans are telemetry, not storage).
const MaxSpanAttrs = 8

// SpanAttr is one key/value pair attached to a span.
type SpanAttr struct {
	Key string
	Val any
}

// SA is shorthand for SpanAttr{Key: k, Val: v}.
func SA(k string, v any) SpanAttr { return SpanAttr{Key: k, Val: v} }

// SpanRec is one recorded span: its trace, identity, parent link, and
// interval in microseconds on the store's monotonic clock.
type SpanRec struct {
	Trace   string     `json:"trace"`
	ID      uint64     `json:"id"`
	Parent  uint64     `json:"parent,omitempty"`
	Cat     string     `json:"cat"`
	Name    string     `json:"name"`
	StartUS float64    `json:"start_us"`
	DurUS   float64    `json:"dur_us"`
	Attrs   []SpanAttr `json:"attrs,omitempty"`
}

// TraceSummary is one trace's index entry.
type TraceSummary struct {
	ID        string    `json:"id"`
	Spans     int       `json:"spans"`
	Dropped   uint64    `json:"dropped,omitempty"`
	StartedAt time.Time `json:"started_at"`
}

// traceBuf is one trace's bounded span list.
type traceBuf struct {
	spans   []SpanRec
	dropped uint64
	started time.Time
}

// TraceStore records service-level spans grouped by trace ID. It holds
// at most maxTraces traces (oldest evicted) of at most maxSpans spans
// each (further spans dropped and counted). The zero *TraceStore (nil)
// is a valid disabled store: every derived SpanContext is inert.
type TraceStore struct {
	epoch     time.Time
	maxTraces int
	maxSpans  int

	nextSpan   atomic.Uint64
	spansTotal atomic.Uint64
	spanDrops  atomic.Uint64
	evictions  atomic.Uint64
	nTraces    atomic.Int64 // len(traces) mirror for the lock-free gauge

	mu     sync.Mutex
	traces map[string]*traceBuf
	order  []string // creation order, for eviction
}

// NewTraceStore returns a store holding at most maxTraces
// traces of maxSpans spans each (minimums 1 and 16).
func NewTraceStore(maxTraces, maxSpans int) *TraceStore {
	if maxTraces < 1 {
		maxTraces = 1
	}
	if maxSpans < 16 {
		maxSpans = 16
	}
	return &TraceStore{
		epoch:     time.Now(),
		maxTraces: maxTraces,
		maxSpans:  maxSpans,
		traces:    make(map[string]*traceBuf),
	}
}

// nowUS is microseconds elapsed on the store's clock.
func (s *TraceStore) nowUS() float64 {
	return float64(time.Since(s.epoch)) / float64(time.Microsecond)
}

// SinceEpochMicros converts an absolute time onto the store's clock.
func (s *TraceStore) SinceEpochMicros(t time.Time) float64 {
	return float64(t.Sub(s.epoch)) / float64(time.Microsecond)
}

// NewTraceID mints a fresh 16-hex-char trace identifier.
func NewTraceID() string {
	return fmt.Sprintf("%016x", rand.Uint64())
}

// ValidTraceID reports whether an externally supplied trace ID is safe
// to adopt: 1–64 characters drawn from [A-Za-z0-9_-].
func ValidTraceID(id string) bool {
	if len(id) == 0 || len(id) > 64 {
		return false
	}
	for i := 0; i < len(id); i++ {
		c := id[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9', c == '_', c == '-':
		default:
			return false
		}
	}
	return true
}

// StartTrace registers (or re-opens) the trace bucket for id — a fresh
// ID is minted when id is empty or malformed — and returns the root
// span context for it. On a nil store the returned context is inert
// and carries the (possibly minted) ID only.
func (s *TraceStore) StartTrace(id string) SpanContext {
	if !ValidTraceID(id) {
		id = NewTraceID()
	}
	if s == nil {
		return SpanContext{trace: id}
	}
	s.mu.Lock()
	if _, ok := s.traces[id]; !ok {
		s.traces[id] = &traceBuf{started: time.Now()}
		s.order = append(s.order, id)
		for len(s.order) > s.maxTraces {
			delete(s.traces, s.order[0])
			s.order = s.order[1:]
			s.evictions.Add(1)
		}
		s.nTraces.Store(int64(len(s.traces)))
	}
	s.mu.Unlock()
	return SpanContext{store: s, trace: id}
}

// record appends one finished span to its trace bucket. A trace evicted
// (or never opened) counts the span as dropped.
func (s *TraceStore) record(rec SpanRec) {
	s.mu.Lock()
	tb, ok := s.traces[rec.Trace]
	if !ok || len(tb.spans) >= s.maxSpans {
		if ok {
			tb.dropped++
		}
		s.mu.Unlock()
		s.spanDrops.Add(1)
		return
	}
	tb.spans = append(tb.spans, rec)
	s.mu.Unlock()
	s.spansTotal.Add(1)
}

// Spans returns copies of the trace's recorded spans in recording
// order, or nil for an unknown trace.
func (s *TraceStore) Spans(traceID string) []SpanRec {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	tb, ok := s.traces[traceID]
	if !ok {
		return nil
	}
	out := make([]SpanRec, len(tb.spans))
	copy(out, tb.spans)
	return out
}

// Contains reports whether the store holds a bucket for traceID.
func (s *TraceStore) Contains(traceID string) bool {
	if s == nil {
		return false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	_, ok := s.traces[traceID]
	return ok
}

// Summaries lists the retained traces, oldest first.
func (s *TraceStore) Summaries() []TraceSummary {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]TraceSummary, 0, len(s.order))
	for _, id := range s.order {
		tb := s.traces[id]
		out = append(out, TraceSummary{
			ID: id, Spans: len(tb.spans), Dropped: tb.dropped, StartedAt: tb.started,
		})
	}
	return out
}

// Register exposes the store's volume and loss series on reg.
func (s *TraceStore) Register(reg *Registry) {
	reg.CounterFunc("obs_tracestore_spans_total",
		"Service-level spans recorded across all traces.", s.spansTotal.Load)
	reg.CounterFunc("obs_tracestore_spans_dropped_total",
		"Spans dropped by the per-trace cap or after trace eviction.", s.spanDrops.Load)
	reg.CounterFunc("obs_tracestore_traces_evicted_total",
		"Traces evicted by the store's trace cap.", s.evictions.Load)
	// Exposition callbacks run under the registry lock and stay
	// lock-free, so the trace count is mirrored into an atomic.
	reg.GaugeFunc("obs_tracestore_traces",
		"Traces currently retained.", func() float64 {
			return float64(s.nTraces.Load())
		})
}

// SpanContext is a position inside a trace: spans started from it
// become children of Span (0 = trace root). The zero value is inert.
type SpanContext struct {
	store *TraceStore
	trace string
	span  uint64
}

// Valid reports whether spans started here can be recorded.
func (sc SpanContext) Valid() bool { return sc.store != nil }

// TraceID returns the context's trace identifier ("" for the zero
// context; still set on an inert context minted by a nil store).
func (sc SpanContext) TraceID() string { return sc.trace }

// Start begins a child span. On an invalid context this is free and
// the returned handle is inert.
func (sc SpanContext) Start(cat, name string) SpanHandle {
	if sc.store == nil {
		return SpanHandle{}
	}
	return SpanHandle{
		sc:    SpanContext{store: sc.store, trace: sc.trace, span: sc.store.nextSpan.Add(1)},
		par:   sc.span,
		cat:   cat,
		name:  name,
		start: sc.store.nowUS(),
	}
}

// Complete records a child span whose interval the caller measured
// itself (queue waits, cache-served cells). It returns the new span's
// ID, or 0 when nothing was recorded.
func (sc SpanContext) Complete(cat, name string, start, end time.Time, attrs ...SpanAttr) uint64 {
	if sc.store == nil {
		return 0
	}
	id := sc.store.nextSpan.Add(1)
	sc.store.record(SpanRec{
		Trace: sc.trace, ID: id, Parent: sc.span, Cat: cat, Name: name,
		StartUS: sc.store.SinceEpochMicros(start),
		DurUS:   float64(end.Sub(start)) / float64(time.Microsecond),
		Attrs:   boundAttrs(attrs),
	})
	return id
}

// boundAttrs clamps an attribute list to MaxSpanAttrs.
func boundAttrs(attrs []SpanAttr) []SpanAttr {
	if len(attrs) == 0 {
		return nil
	}
	if len(attrs) > MaxSpanAttrs {
		attrs = attrs[:MaxSpanAttrs]
	}
	out := make([]SpanAttr, len(attrs))
	copy(out, attrs)
	return out
}

// SpanHandle is an in-flight span started by SpanContext.Start; End
// records it. The zero handle is a no-op.
type SpanHandle struct {
	sc        SpanContext
	par       uint64
	cat, name string
	start     float64
}

// Live reports whether End will record anything — hot paths gate
// attribute construction on it so the disabled path stays allocation
// free.
func (h SpanHandle) Live() bool { return h.sc.store != nil }

// Context returns the span's own context, for parenting children.
// An inert handle returns the zero context.
func (h SpanHandle) Context() SpanContext { return h.sc }

// End records the span with the given attributes (clamped to
// MaxSpanAttrs). Calling End on an inert handle does nothing.
func (h SpanHandle) End(attrs ...SpanAttr) {
	if h.sc.store == nil {
		return
	}
	s := h.sc.store
	s.record(SpanRec{
		Trace: h.sc.trace, ID: h.sc.span, Parent: h.par, Cat: h.cat, Name: h.name,
		StartUS: h.start, DurUS: s.nowUS() - h.start,
		Attrs: boundAttrs(attrs),
	})
}

// spanKey carries a SpanContext through context.
type spanKey struct{}

// WithSpan returns a context carrying sc, so lower layers parent their
// spans under it. Passing an invalid sc returns ctx unchanged (lookups
// then yield the inert zero context).
func WithSpan(ctx context.Context, sc SpanContext) context.Context {
	if !sc.Valid() && sc.trace == "" {
		return ctx
	}
	return context.WithValue(ctx, spanKey{}, sc)
}

// SpanFrom returns the context's span context, or the inert zero value
// when none was attached.
func SpanFrom(ctx context.Context) SpanContext {
	sc, _ := ctx.Value(spanKey{}).(SpanContext)
	return sc
}
