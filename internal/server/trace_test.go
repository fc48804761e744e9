package server

import (
	"context"
	"encoding/json"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
)

// chromeTrace decodes a /v1/traces/{id} Chrome trace-event body.
func chromeTrace(t *testing.T, body string) []obs.Event {
	t.Helper()
	var doc struct {
		TraceEvents []obs.Event `json:"traceEvents"`
	}
	if err := json.Unmarshal([]byte(body), &doc); err != nil {
		t.Fatalf("trace is not Chrome trace-event JSON: %v\n%s", err, body)
	}
	return doc.TraceEvents
}

// spanIDOf pulls the span identity out of an exported event's args.
func spanIDOf(t *testing.T, ev obs.Event, key string) uint64 {
	t.Helper()
	v, ok := ev.Args[key].(float64) // JSON numbers decode as float64
	if !ok {
		return 0
	}
	return uint64(v)
}

// TestSweepTraceEndToEnd is the joinability acceptance test: one sweep
// submitted over HTTP yields a single trace whose request span parents
// the sweep span, which parents every cell span — including, on a
// second identical sweep, the cache-hit cells.
func TestSweepTraceEndToEnd(t *testing.T) {
	_, c := startServer(t, Options{Workers: 2, QueueDepth: 8, CacheSize: 64})
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	sub, traceID, err := c.Sweeps().SubmitTraced(ctx, fig5MiniSpec(), "")
	if err != nil {
		t.Fatal(err)
	}
	if !obs.ValidTraceID(traceID) {
		t.Fatalf("X-Trace-Id response header %q is not a valid trace ID", traceID)
	}
	if _, err := c.Sweeps().Wait(ctx, sub.ID, 0); err != nil {
		t.Fatal(err)
	}

	body, err := c.Trace(ctx, traceID, "")
	if err != nil {
		t.Fatal(err)
	}
	events := chromeTrace(t, body)

	// Spans are recorded as they end, so the sweep span can precede the
	// request span that started it: index the spans by category first,
	// then check the sweep → http and cell → sweep parent links.
	var reqID, sweepID uint64
	cells := 0
	cats := map[string]int{}
	for _, ev := range events {
		cats[ev.Cat]++
		switch ev.Cat {
		case "http":
			reqID = spanIDOf(t, ev, "span")
		case "sweep":
			sweepID = spanIDOf(t, ev, "span")
		case "cell":
			cells++
		}
	}
	if reqID == 0 {
		t.Fatal("no http request span in trace")
	}
	if sweepID == 0 {
		t.Fatal("no sweep span in trace")
	}
	if cells != 4 {
		t.Errorf("cell spans = %d, want one per cell (4)", cells)
	}
	for _, ev := range events {
		switch ev.Cat {
		case "sweep":
			if got := spanIDOf(t, ev, "parent"); got != reqID {
				t.Errorf("sweep span parent = %d, want request span %d", got, reqID)
			}
		case "cell":
			if got := spanIDOf(t, ev, "parent"); got != sweepID {
				t.Errorf("cell span %q parent = %d, want sweep span %d", ev.Name, got, sweepID)
			}
		}
	}
	// The cells ran on the pool: their queue-wait and run spans, and the
	// simulator's per-round spans, must be in the same trace.
	for _, cat := range []string{"jobs", "sim"} {
		if cats[cat] == 0 {
			t.Errorf("no %q spans in trace; got %v", cat, cats)
		}
	}

	// Second identical sweep under its own trace: every cell is served
	// from the cache and still shows up as a span with the disposition.
	_, trace2, err := c.Sweeps().SubmitTraced(ctx, fig5MiniSpec(), "")
	if err != nil {
		t.Fatal(err)
	}
	if trace2 == traceID {
		t.Fatalf("second submission reused trace %q", traceID)
	}
	// Waiting on the sweep list: the second sweep is swp-2.
	if _, err := c.Sweeps().Wait(ctx, "swp-2", 0); err != nil {
		t.Fatal(err)
	}
	body2, err := c.Trace(ctx, trace2, "")
	if err != nil {
		t.Fatal(err)
	}
	hits := 0
	for _, ev := range chromeTrace(t, body2) {
		if ev.Cat == "cell" && ev.Args["disposition"] == "cache" {
			hits++
		}
	}
	if hits != 4 {
		t.Errorf("cache-hit cell spans in second trace = %d, want 4", hits)
	}
}

// TestSubmitTraceJoinsRunTrace checks the single-experiment trace: one
// fetch holds the request, queue-wait and run spans and, under the
// run, the simulator's experiment span, one round span per round and
// the FSA frame spans — each parented in that chain, on one clock.
func TestSubmitTraceJoinsRunTrace(t *testing.T) {
	_, c := startServer(t, Options{Workers: 1, QueueDepth: 4})
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	cfg := fastCfg()
	cfg.Workers = 2 // concurrent rounds must still nest on their tracks
	sub, traceID, err := c.Experiments().SubmitTraced(ctx, cfg, "my-trace-01")
	if err != nil {
		t.Fatal(err)
	}
	if traceID != "my-trace-01" {
		t.Fatalf("server did not adopt the client trace ID: got %q", traceID)
	}
	if _, err := c.Experiments().Wait(ctx, sub.ID, 0); err != nil {
		t.Fatal(err)
	}

	body, err := c.Trace(ctx, traceID, "")
	if err != nil {
		t.Fatal(err)
	}
	events := chromeTrace(t, body)
	byID := map[uint64]obs.Event{}
	counts := map[string]int{}
	for _, ev := range events {
		byID[spanIDOf(t, ev, "span")] = ev
		name := ev.Name
		if ev.Cat == "http" {
			name = "request"
		}
		counts[name]++
	}
	for name, want := range map[string]int{
		"request": 1, "queue-wait": 1, "run": 1, "experiment": 1, "round": cfg.Rounds,
	} {
		if counts[name] != want {
			t.Errorf("%s spans = %d, want %d (counts %v)", name, counts[name], want, counts)
		}
	}
	if counts["frame"] == 0 {
		t.Error("no frame spans in the trace")
	}
	parentOf := map[string]string{
		"queue-wait": "request", "run": "request", "experiment": "run", "round": "experiment", "frame": "round",
	}
	for _, ev := range byID {
		want, ok := parentOf[ev.Name]
		if !ok {
			continue
		}
		p, found := byID[spanIDOf(t, ev, "parent")]
		got := p.Name
		if p.Cat == "http" {
			got = "request"
		}
		if !found || got != want {
			t.Errorf("%s span parent = %q, want %q", ev.Name, got, want)
			continue
		}
		// One clock: a child lies inside its parent (the request span
		// ends at the 202, before the job it queued has run).
		if want != "request" && (ev.TS < p.TS || ev.TS+ev.Dur > p.TS+p.Dur+1e-3) {
			t.Errorf("%s [%v, +%v] outside its %s [%v, +%v]", ev.Name, ev.TS, ev.Dur, want, p.TS, p.Dur)
		}
	}

	// JSONL export serves the same set, one JSON object per line.
	jl, err := c.Trace(ctx, traceID, "jsonl")
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(jl), "\n")
	if len(lines) != len(events) {
		t.Errorf("JSONL lines = %d, want %d", len(lines), len(events))
	}
	for _, ln := range lines {
		var ev obs.Event
		if err := json.Unmarshal([]byte(ln), &ev); err != nil {
			t.Fatalf("bad JSONL line %q: %v", ln, err)
		}
	}

	// The trace index lists it.
	sums, err := c.Traces(ctx)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, s := range sums {
		if s.ID == traceID && s.Spans == len(events) {
			found = true
		}
	}
	if !found {
		t.Errorf("trace %q with %d spans missing from /v1/traces: %+v", traceID, len(events), sums)
	}
}

// TestTraceSpanCapCountsDrops: a run whose frames overflow a small
// per-trace cap keeps exactly that many spans; the rest are counted on
// the trace's summary and on obs_tracestore_spans_dropped_total.
func TestTraceSpanCapCountsDrops(t *testing.T) {
	_, c := startServer(t, Options{Workers: 1, QueueDepth: 4, TraceStoreSpans: 16})
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	cfg := fastCfg()
	cfg.Rounds = 10 // 10 round spans plus their frames: well past 16
	sub, traceID, err := c.Experiments().SubmitTraced(ctx, cfg, "")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Experiments().Wait(ctx, sub.ID, 0); err != nil {
		t.Fatal(err)
	}
	sums, err := c.Traces(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(sums) != 1 || sums[0].ID != traceID || sums[0].Spans != 16 || sums[0].Dropped == 0 {
		t.Fatalf("summaries = %+v, want one trace of 16 spans with drops", sums)
	}
	metrics, err := c.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	want := "obs_tracestore_spans_dropped_total " + strconv.FormatUint(sums[0].Dropped, 10) + "\n"
	if !strings.Contains(metrics, want) {
		t.Errorf("exposition missing %q", want)
	}
}

// TestTraceStoreDisabled pins the disabled contract: the ID still
// propagates (header echoed) but nothing records and the trace
// endpoints 404.
func TestTraceStoreDisabled(t *testing.T) {
	_, c := startServer(t, Options{Workers: 1, QueueDepth: 4, TraceStoreTraces: -1})
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	sub, traceID, err := c.Experiments().SubmitTraced(ctx, fastCfg(), "")
	if err != nil {
		t.Fatal(err)
	}
	if !obs.ValidTraceID(traceID) {
		t.Fatalf("disabled store stopped ID propagation: header %q", traceID)
	}
	if _, err := c.Experiments().Wait(ctx, sub.ID, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Trace(ctx, traceID, ""); err == nil {
		t.Error("GET /v1/traces/{id} succeeded with the span store disabled")
	}
	if _, err := c.Traces(ctx); err == nil {
		t.Error("GET /v1/traces succeeded with the span store disabled")
	}
}

// TestUntracedPollsStayOutOfStore: read-only requests without a header
// must not mint traces, or polling would churn the bounded store.
func TestUntracedPollsStayOutOfStore(t *testing.T) {
	s, c := startServer(t, Options{Workers: 1, QueueDepth: 4})
	ctx := context.Background()
	for i := 0; i < 5; i++ {
		if _, err := c.Experiments().List(ctx, ""); err != nil {
			t.Fatal(err)
		}
	}
	if sums := s.spans.Summaries(); len(sums) != 0 {
		t.Errorf("GET polls minted %d traces: %+v", len(sums), sums)
	}
}

// TestStatusz renders the snapshot after real traffic and spot-checks
// the sections.
func TestStatusz(t *testing.T) {
	_, c := startServer(t, Options{Workers: 2, QueueDepth: 8})
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	sub, err := c.Sweeps().Submit(ctx, fig5MiniSpec())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Sweeps().Wait(ctx, sub.ID, 0); err != nil {
		t.Fatal(err)
	}

	body, err := c.Statusz(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"rfidd statusz", "worker pool", "result cache", "sweeps",
		sub.ID, "recent wide events", "origin",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("statusz missing %q", want)
		}
	}
	// Every finished cell produced a wide event row (origin column
	// followed by the sweep-scoped cell ID).
	if got := strings.Count(body, "<td>sweep</td><td>"+sub.ID+"/c"); got != 4 {
		t.Errorf("wide-event rows with origin sweep = %d, want 4", got)
	}
}
