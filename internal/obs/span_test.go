package obs

import (
	"bytes"
	"context"
	"strings"
	"testing"
	"time"
)

func TestSpanTreeRecording(t *testing.T) {
	s := NewTraceStore(4, 64)
	root := s.StartTrace("req-1")
	if !root.Valid() || root.TraceID() != "req-1" {
		t.Fatalf("root context %+v", root)
	}
	req := root.Start("http", "POST /v1/sweeps")
	sweep := req.Context().Start("sweep", "swp-1")
	cell := sweep.Context().Start("cell", "c0")
	cell.End(SA("disposition", "run"))
	sweep.End(SA("cells", 1))
	req.End()

	spans := s.Spans("req-1")
	if len(spans) != 3 {
		t.Fatalf("got %d spans, want 3: %+v", len(spans), spans)
	}
	byName := map[string]SpanRec{}
	for _, sp := range spans {
		byName[sp.Name] = sp
	}
	if byName["swp-1"].Parent != byName["POST /v1/sweeps"].ID {
		t.Errorf("sweep span parent %d, want request span %d",
			byName["swp-1"].Parent, byName["POST /v1/sweeps"].ID)
	}
	if byName["c0"].Parent != byName["swp-1"].ID {
		t.Errorf("cell span parent %d, want sweep span %d",
			byName["c0"].Parent, byName["swp-1"].ID)
	}
	if byName["POST /v1/sweeps"].Parent != 0 {
		t.Errorf("request span parent %d, want 0 (trace root)", byName["POST /v1/sweeps"].Parent)
	}
	if got := byName["c0"].Attrs; len(got) != 1 || got[0].Key != "disposition" {
		t.Errorf("cell attrs %+v", got)
	}
}

func TestSpanComplete(t *testing.T) {
	s := NewTraceStore(4, 64)
	sc := s.StartTrace("t")
	start := time.Now().Add(-50 * time.Millisecond)
	id := sc.Complete("jobs", "queue-wait", start, start.Add(40*time.Millisecond), SA("id", "exp-1"))
	if id == 0 {
		t.Fatal("Complete recorded nothing")
	}
	spans := s.Spans("t")
	if len(spans) != 1 {
		t.Fatalf("got %d spans", len(spans))
	}
	if d := spans[0].DurUS; d < 39_000 || d > 41_000 {
		t.Errorf("measured duration %v us, want ~40000", d)
	}
}

func TestSpanAttrBound(t *testing.T) {
	s := NewTraceStore(1, 16)
	sc := s.StartTrace("t")
	attrs := make([]SpanAttr, MaxSpanAttrs+3)
	for i := range attrs {
		attrs[i] = SA("k", i)
	}
	sc.Start("c", "n").End(attrs...)
	if got := len(s.Spans("t")[0].Attrs); got != MaxSpanAttrs {
		t.Errorf("recorded %d attrs, want clamp at %d", got, MaxSpanAttrs)
	}
}

func TestSpanCapsAndEviction(t *testing.T) {
	s := NewTraceStore(2, 16)
	a := s.StartTrace("a")
	for i := 0; i < 20; i++ {
		a.Start("c", "n").End()
	}
	if got := len(s.Spans("a")); got != 16 {
		t.Errorf("trace a holds %d spans, want cap 16", got)
	}
	if s.spanDrops.Load() != 4 {
		t.Errorf("span drops %d, want 4", s.spanDrops.Load())
	}
	s.StartTrace("b")
	s.StartTrace("c") // evicts a
	if s.Contains("a") {
		t.Error("trace a still present after eviction")
	}
	if s.evictions.Load() != 1 {
		t.Errorf("evictions %d, want 1", s.evictions.Load())
	}
	// Recording into the evicted trace drops, not resurrects.
	a.Start("c", "n").End()
	if s.Contains("a") {
		t.Error("recording resurrected an evicted trace")
	}
	sums := s.Summaries()
	if len(sums) != 2 || sums[0].ID != "b" || sums[1].ID != "c" {
		t.Errorf("summaries %+v", sums)
	}
}

func TestSpanDisabledPaths(t *testing.T) {
	// Zero context: everything inert.
	var zero SpanContext
	h := zero.Start("c", "n")
	if h.Live() {
		t.Error("zero-context span is live")
	}
	h.End()
	if zero.Complete("c", "n", time.Now(), time.Now()) != 0 {
		t.Error("zero-context Complete recorded")
	}

	// Nil store: StartTrace still mints an ID, records nothing.
	var nilStore *TraceStore
	sc := nilStore.StartTrace("")
	if sc.Valid() || sc.TraceID() == "" {
		t.Errorf("nil-store context %+v", sc)
	}

	sc.Start("c", "n").End()
	if nilStore.Contains(sc.TraceID()) || nilStore.Spans(sc.TraceID()) != nil {
		t.Error("nil store recorded spans")
	}
}

func TestSpanContextPlumbing(t *testing.T) {
	s := NewTraceStore(2, 16)
	sc := s.StartTrace("t")
	ctx := WithSpan(context.Background(), sc)
	if got := SpanFrom(ctx); got != sc {
		t.Errorf("SpanFrom returned %+v, want %+v", got, sc)
	}
	if got := SpanFrom(context.Background()); got.Valid() {
		t.Errorf("empty context yielded valid span context %+v", got)
	}
	// Invalid, trace-less contexts are not attached at all.
	if ctx2 := WithSpan(context.Background(), SpanContext{}); ctx2 != context.Background() {
		t.Error("WithSpan attached an inert zero context")
	}
}

func TestTraceIDValidation(t *testing.T) {
	for _, ok := range []string{"abc", "A-b_9", strings.Repeat("f", 64)} {
		if !ValidTraceID(ok) {
			t.Errorf("ValidTraceID(%q) = false", ok)
		}
	}
	for _, bad := range []string{"", "has space", "semi;colon", strings.Repeat("f", 65), "x\n"} {
		if ValidTraceID(bad) {
			t.Errorf("ValidTraceID(%q) = true", bad)
		}
	}
	id := NewTraceID()
	if !ValidTraceID(id) || len(id) != 16 {
		t.Errorf("NewTraceID() = %q", id)
	}
}

// TestSpanChromeExport: one trace exports alone in both formats, the
// empty trace ID exports every retained trace, and an unknown trace
// still yields a well-formed empty array.
func TestSpanChromeExport(t *testing.T) {
	s := NewTraceStore(2, 16)
	s.StartTrace("t").Start("http", "GET /x").End(SA("status", 200))
	s.StartTrace("u").Start("http", "GET /y").End()

	ev := decodeChrome(t, s, "t")
	if len(ev) != 1 {
		t.Fatalf("exported %+v, want one span", ev)
	}
	if ev[0].Args["trace"] != "t" || ev[0].Args["status"] != float64(200) {
		t.Errorf("span args %+v", ev[0].Args)
	}
	if all := decodeChrome(t, s, ""); len(all) != 2 {
		t.Errorf("store-wide export has %d events, want 2", len(all))
	}

	var buf bytes.Buffer
	if err := s.WriteJSONL(&buf, "t"); err != nil {
		t.Fatal(err)
	}
	if lines := strings.Count(strings.TrimSpace(buf.String()), "\n") + 1; lines != 1 {
		t.Errorf("JSONL emitted %d lines, want 1", lines)
	}

	buf.Reset()
	if err := s.WriteChromeTrace(&buf, "missing"); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `"traceEvents":[]`) {
		t.Errorf("empty trace export %q", buf.String())
	}
}

func TestTraceStoreRegister(t *testing.T) {
	s := NewTraceStore(2, 16)
	s.StartTrace("t").Start("c", "n").End()
	reg := NewRegistry()
	s.Register(reg)
	var buf bytes.Buffer
	reg.WritePrometheus(&buf)
	text := buf.String()
	if errs := LintPrometheus(text); errs != nil {
		t.Fatalf("lint: %v", errs)
	}
	if !strings.Contains(text, "obs_tracestore_spans_total 1") {
		t.Errorf("exposition missing span count:\n%s", text)
	}
	if !strings.Contains(text, "obs_tracestore_traces 1") {
		t.Errorf("exposition missing trace gauge:\n%s", text)
	}
}
