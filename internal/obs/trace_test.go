package obs

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"strings"
	"testing"
	"time"
)

// TestNilTracerIsSafeAndFree: the nil *TraceStore is a valid disabled
// tracer — every path through it is a no-op, it exports an empty
// trace, and it allocates nothing.
func TestNilTracerIsSafeAndFree(t *testing.T) {
	var s *TraceStore
	if s.Enabled() {
		t.Error("nil store reports enabled")
	}
	sc := s.StartTrace("t")
	sc.Start("c", "n").End(SA("k", 1))
	sc.Complete("c", "n", time.Now(), time.Now())
	if s.Spans("t") != nil || s.Summaries() != nil || s.Contains("t") {
		t.Error("nil store recorded something")
	}
	var buf bytes.Buffer
	if err := s.WriteChromeTrace(&buf, ""); err != nil || !strings.Contains(buf.String(), `"traceEvents":[]`) {
		t.Errorf("nil store export = %q, %v", buf.String(), err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		h := s.StartTrace("t").Start("sim", "round")
		if h.Live() {
			h.End(SA("round", 3))
		}
		h.Context().Start("sim", "frame").End()
	})
	if allocs != 0 {
		t.Errorf("disabled tracing allocates %v per op, want 0", allocs)
	}
}

// TestSpanRecordsCompleteEvent: a recorded span exports as one complete
// ("X") event on its category's first track, with its attrs as args.
func TestSpanRecordsCompleteEvent(t *testing.T) {
	s := NewTraceStore(1, 16)
	s.StartTrace("t").Start("sim", "round").End(SA("round", 1))
	ev := decodeChrome(t, s, "t")
	if len(ev) != 1 {
		t.Fatalf("events = %d, want 1", len(ev))
	}
	e := ev[0]
	if e.Name != "round" || e.Cat != "sim" || e.TID != catTrack("sim") || e.PID != tracePID {
		t.Errorf("event = %+v", e)
	}
	if e.Dur < 0 || e.TS < 0 {
		t.Errorf("negative timing: ts=%g dur=%g", e.TS, e.Dur)
	}
	if e.Args["round"] != float64(1) || e.Args["trace"] != "t" {
		t.Errorf("args = %v", e.Args)
	}
}

// TestRingOverwritesOldest: the store's memory is bounded like a ring —
// at its trace cap, each new trace evicts the oldest one whole.
func TestRingOverwritesOldest(t *testing.T) {
	s := NewTraceStore(3, 16)
	for i := 0; i < 5; i++ {
		s.StartTrace(string(rune('a'+i))).Start("c", "n").End()
	}
	if s.evictions.Load() != 2 {
		t.Errorf("evictions = %d, want 2", s.evictions.Load())
	}
	got := ""
	for _, sum := range s.Summaries() {
		got += sum.ID
	}
	if got != "cde" {
		t.Errorf("retained traces = %q, want oldest-first cde", got)
	}
}

func TestWriteChromeTraceShape(t *testing.T) {
	s := NewTraceStore(2, 16)
	req := s.StartTrace("t").Start("http", "POST /v1/experiments")
	req.Context().Start("sim", "round").End(SA("slots", 12))
	req.End()

	var buf bytes.Buffer
	if err := s.WriteChromeTrace(&buf, "t"); err != nil {
		t.Fatal(err)
	}
	var decoded struct {
		TraceEvents []map[string]any `json:"traceEvents"`
		Unit        string           `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(buf.Bytes(), &decoded); err != nil {
		t.Fatalf("chrome trace is not valid JSON: %v\n%s", err, buf.String())
	}
	if len(decoded.TraceEvents) != 2 || decoded.Unit != "ms" {
		t.Fatalf("decoded = %+v", decoded)
	}
	for _, e := range decoded.TraceEvents {
		for _, k := range []string{"name", "ph", "ts", "dur", "pid", "tid"} {
			if _, ok := e[k]; !ok {
				t.Errorf("event missing %q: %v", k, e)
			}
		}
	}
}

func TestWriteJSONL(t *testing.T) {
	s := NewTraceStore(1, 16)
	sc := s.StartTrace("t")
	sc.Start("a", "one").End()
	sc.Start("a", "two").End()
	var buf bytes.Buffer
	if err := s.WriteJSONL(&buf, "t"); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("lines = %d, want 2", len(lines))
	}
	for _, l := range lines {
		var e Event
		if err := json.Unmarshal([]byte(l), &e); err != nil {
			t.Errorf("line %q: %v", l, err)
		}
	}
}

// TestRegisterExposesDroppedSpans pins the loss contract: spans past a
// trace's cap are dropped, counted on the trace's summary and exposed
// live as obs_tracestore_spans_dropped_total.
func TestRegisterExposesDroppedSpans(t *testing.T) {
	reg := NewRegistry()
	s := NewTraceStore(1, 16)
	s.Register(reg)

	render := func() string {
		var sb strings.Builder
		reg.WritePrometheus(&sb)
		return sb.String()
	}
	if got := render(); !strings.Contains(got, "obs_tracestore_spans_dropped_total 0") {
		t.Fatalf("fresh store exposition:\n%s", got)
	}
	sc := s.StartTrace("t")
	for i := 0; i < 19; i++ { // cap 16: three spans dropped
		sc.Start("c", "e").End()
	}
	got := render()
	if !strings.Contains(got, "obs_tracestore_spans_dropped_total 3") {
		t.Fatalf("after 19 spans into a 16-span trace, exposition:\n%s", got)
	}
	if sums := s.Summaries(); len(sums) != 1 || sums[0].Spans != 16 || sums[0].Dropped != 3 {
		t.Errorf("summaries = %+v, want 16 spans and 3 dropped", sums)
	}
	if errs := LintPrometheus(got); len(errs) != 0 {
		t.Fatalf("exposition fails lint: %v", errs)
	}
}

func TestContextRoundTrip(t *testing.T) {
	if SpanFrom(context.Background()).Valid() {
		t.Error("empty context yielded a span context")
	}
	sc := NewTraceStore(1, 16).StartTrace("t").Start("c", "n").Context()
	if SpanFrom(WithSpan(context.Background(), sc)) != sc {
		t.Error("span context lost in context round trip")
	}
}

// TestChromeLanesNest: concurrent same-category spans land on separate
// tracks, children stay on their parent's track, and no two complete
// events on one track partially overlap — including abutting frames
// whose float start+dur would overshoot the next frame's start.
func TestChromeLanesNest(t *testing.T) {
	rec := func(id, parent uint64, cat, name string, start, dur float64) SpanRec {
		return SpanRec{Trace: "t", ID: id, Parent: parent, Cat: cat, Name: name, StartUS: start, DurUS: dur}
	}
	spans := []SpanRec{
		rec(1, 0, "jobs", "run", 0, 100),
		rec(2, 1, "sim", "experiment", 1, 98),
		rec(3, 2, "sim", "round", 5.606, 8.919),  // worker 1
		rec(4, 2, "sim", "round", 12.976, 6.009), // worker 2, overlaps round 3
		rec(5, 3, "sim", "frame", 5.7, 0.1+0.2),
		rec(6, 3, "sim", "frame", 6, 8),
		rec(7, 4, "sim", "frame", 13, 5),
		rec(8, 2, "sim", "round", 20, 10), // after both: back on the experiment's track
		rec(9, 1, "jobs", "retry", 50, 0),
	}
	ev := chromeEvents(spans)
	tid := map[uint64]int{}
	for _, e := range ev {
		tid[e.Args["span"].(uint64)] = e.TID
	}
	if tid[3] == tid[4] {
		t.Errorf("overlapping rounds share track %d", tid[3])
	}
	for child, parent := range map[uint64]uint64{3: 2, 5: 3, 6: 3, 7: 4, 8: 2, 9: 1} {
		if tid[child] != tid[parent] {
			t.Errorf("span %d on track %d, its parent %d on %d", child, tid[child], parent, tid[parent])
		}
	}
	if tid[1]/laneBlock == tid[2]/laneBlock {
		t.Errorf("jobs and sim spans share a category block: %d, %d", tid[1], tid[2])
	}
	if err := partialOverlap(ev); err != "" {
		t.Error(err)
	}
}

// partialOverlap reports the first pair of complete events on one
// (pid, tid) that overlap without nesting, on whole nanoseconds.
func partialOverlap(ev []Event) string {
	type iv struct {
		name       string
		start, end int64
	}
	byTrack := map[[2]int][]iv{}
	for _, e := range ev {
		s := nanos(e.TS)
		byTrack[[2]int{e.PID, e.TID}] = append(byTrack[[2]int{e.PID, e.TID}], iv{e.Name, s, s + nanos(e.Dur)})
	}
	for track, ivs := range byTrack {
		for i, a := range ivs {
			for _, b := range ivs[i+1:] {
				if a.start < b.start && b.start < a.end && a.end < b.end ||
					b.start < a.start && a.start < b.end && b.end < a.end {
					return fmt.Sprintf("track %v: %s %v and %s %v partially overlap", track, a.name, a, b.name, b)
				}
			}
		}
	}
	return ""
}

// decodeChrome exports one trace and decodes its events.
func decodeChrome(t *testing.T, s *TraceStore, traceID string) []Event {
	t.Helper()
	var buf bytes.Buffer
	if err := s.WriteChromeTrace(&buf, traceID); err != nil {
		t.Fatal(err)
	}
	var obj struct {
		TraceEvents []Event `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &obj); err != nil {
		t.Fatal(err)
	}
	return obj.TraceEvents
}
