package server

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/obs/audit"
	"repro/internal/sim"
)

// TestWriteSSEFramingGolden pins the wire format byte-for-byte: the SSE
// triad in id/event/data order, JSON payload, blank-line terminator,
// and the comment form of heartbeats.
func TestWriteSSEFramingGolden(t *testing.T) {
	var sb strings.Builder
	err := writeSSEEvent(&sb, obs.StreamEvent{
		ID: 7, Type: "round", Data: map[string]any{"round": 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	if want := "id: 7\nevent: round\ndata: {\"round\":2}\n\n"; sb.String() != want {
		t.Errorf("framing = %q, want %q", sb.String(), want)
	}

	sb.Reset()
	if err := writeSSEEvent(&sb, obs.StreamEvent{ID: 1, Type: "job"}); err != nil {
		t.Fatal(err)
	}
	if want := "id: 1\nevent: job\ndata: {}\n\n"; sb.String() != want {
		t.Errorf("nil-data framing = %q, want %q", sb.String(), want)
	}

	sb.Reset()
	if err := writeSSEHeartbeat(&sb); err != nil {
		t.Fatal(err)
	}
	if want := ": heartbeat\n\n"; sb.String() != want {
		t.Errorf("heartbeat = %q, want %q", sb.String(), want)
	}
}

// sseEvent is one parsed frame of a raw SSE body.
type sseEvent struct {
	id    uint64
	typ   string
	data  map[string]any
	lines []string
}

// parseSSE splits a full SSE body into events, failing on any framing
// violation (unknown field lines, data before id, missing terminator).
func parseSSE(t *testing.T, body string) []sseEvent {
	t.Helper()
	var out []sseEvent
	var cur sseEvent
	for _, line := range strings.Split(body, "\n") {
		switch {
		case line == "":
			if len(cur.lines) > 0 {
				out = append(out, cur)
				cur = sseEvent{}
			}
		case strings.HasPrefix(line, ": "):
			// comment/heartbeat; stands alone, not part of an event
		case strings.HasPrefix(line, "id: "):
			fmt.Sscanf(line, "id: %d", &cur.id)
			cur.lines = append(cur.lines, line)
		case strings.HasPrefix(line, "event: "):
			cur.typ = strings.TrimPrefix(line, "event: ")
			cur.lines = append(cur.lines, line)
		case strings.HasPrefix(line, "data: "):
			if err := json.Unmarshal([]byte(line[len("data: "):]), &cur.data); err != nil {
				t.Fatalf("bad data line %q: %v", line, err)
			}
			cur.lines = append(cur.lines, line)
		default:
			t.Fatalf("unexpected SSE line %q", line)
		}
	}
	if len(cur.lines) > 0 {
		t.Fatalf("body does not end with a blank-line terminator: %q", cur.lines)
	}
	return out
}

// TestEventsStreamEndToEnd runs an experiment to completion and then
// replays its whole stream over HTTP, checking framing, ordering and
// the event mix a run must produce.
func TestEventsStreamEndToEnd(t *testing.T) {
	_, c := startServer(t, Options{Workers: 1, QueueDepth: 4, EventHistory: 2048})
	ctx := context.Background()
	sub, err := c.Submit(ctx, fastCfg())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Wait(ctx, sub.ID, 0); err != nil {
		t.Fatal(err)
	}

	resp, err := http.Get(c.BaseURL + "/v1/experiments/" + sub.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Errorf("Content-Type = %q", ct)
	}
	body, err := io.ReadAll(resp.Body) // bus is closed: replay then EOF
	if err != nil {
		t.Fatal(err)
	}
	events := parseSSE(t, string(body))
	if len(events) == 0 {
		t.Fatal("empty stream")
	}

	counts := map[string]int{}
	var lastID uint64
	for _, ev := range events {
		counts[ev.typ]++
		if ev.id <= lastID {
			t.Errorf("event ids not strictly increasing: %d after %d", ev.id, lastID)
		}
		lastID = ev.id
	}
	if counts["round"] != 3 {
		t.Errorf("round events = %d, want one per round", counts["round"])
	}
	if counts["frame"] == 0 {
		t.Error("no frame events")
	}
	if counts["job"] == 0 {
		t.Error("no job lifecycle events")
	}
	last := events[len(events)-1]
	if last.typ != "job" || last.data["to"] != "done" {
		t.Errorf("stream does not end with the terminal job event: %+v", last)
	}
}

// TestEventsStreamThroughLoggingHandler repeats the replay fetch with
// request logging enabled, so the statusRecorder wrapper is in the
// response path. Regression: the wrapper's embedded interface hid the
// Flusher method set, and the SSE handler 500ed behind the real
// daemon (which always logs) while direct-handler tests passed.
func TestEventsStreamThroughLoggingHandler(t *testing.T) {
	_, c := startServer(t, Options{
		Workers: 1, QueueDepth: 4, EventHistory: 2048,
		Logger: slog.New(slog.NewTextHandler(io.Discard, nil)),
	})
	ctx := context.Background()
	sub, err := c.Submit(ctx, fastCfg())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Wait(ctx, sub.ID, 0); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(c.BaseURL + "/v1/experiments/" + sub.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d through logging handler", resp.StatusCode)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if events := parseSSE(t, string(body)); len(events) == 0 {
		t.Fatal("empty stream through logging handler")
	}
}

// TestEventsLastEventIDResume reconnects mid-stream with both resume
// spellings and checks delivery starts strictly after the cursor.
func TestEventsLastEventIDResume(t *testing.T) {
	_, c := startServer(t, Options{Workers: 1, QueueDepth: 4, EventHistory: 2048})
	ctx := context.Background()
	sub, err := c.Submit(ctx, fastCfg())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Wait(ctx, sub.ID, 0); err != nil {
		t.Fatal(err)
	}

	full := fetchEvents(t, c, sub.ID, nil)
	if len(full) < 4 {
		t.Fatalf("stream too short to test resume: %d events", len(full))
	}
	cursor := full[len(full)/2].id

	hdr := map[string]string{"Last-Event-ID": fmt.Sprint(cursor)}
	for name, evs := range map[string][]sseEvent{
		"header": fetchEvents(t, c, sub.ID, hdr),
		"query":  fetchEvents(t, c, sub.ID+"/events?after="+fmt.Sprint(cursor), nil),
	} {
		if len(evs) != len(full)-len(full)/2-1 {
			t.Errorf("%s resume returned %d events, want %d", name, len(evs), len(full)-len(full)/2-1)
		}
		for _, ev := range evs {
			if ev.id <= cursor {
				t.Errorf("%s resume replayed event %d at or before cursor %d", name, ev.id, cursor)
			}
		}
	}
}

// TestSweepEventsLastEventIDResume mirrors the resume contract on the
// sweep-cell stream: reconnecting with a cursor — header or ?after= —
// replays only the cell/sweep events strictly after it, and the
// resumed stream still ends with the terminal sweep event.
func TestSweepEventsLastEventIDResume(t *testing.T) {
	_, c := startServer(t, Options{Workers: 2, QueueDepth: 8, EventHistory: 2048})
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	sub, err := c.SubmitSweep(ctx, fig5MiniSpec())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.WaitSweep(ctx, sub.ID, 0); err != nil {
		t.Fatal(err)
	}

	path := "/v1/sweeps/" + sub.ID + "/events"
	full := fetchSSE(t, c, path, nil)
	if len(full) < 4 {
		t.Fatalf("stream too short to test resume: %d events", len(full))
	}
	if last := full[len(full)-1]; last.typ != "sweep" {
		t.Fatalf("stream does not end with the terminal sweep event: %+v", last)
	}
	cursor := full[len(full)/2].id

	hdr := map[string]string{"Last-Event-ID": fmt.Sprint(cursor)}
	for name, evs := range map[string][]sseEvent{
		"header": fetchSSE(t, c, path, hdr),
		"query":  fetchSSE(t, c, path+"?after="+fmt.Sprint(cursor), nil),
	} {
		if want := len(full) - len(full)/2 - 1; len(evs) != want {
			t.Errorf("%s resume returned %d events, want %d", name, len(evs), want)
		}
		for _, ev := range evs {
			if ev.id <= cursor {
				t.Errorf("%s resume replayed event %d at or before cursor %d", name, ev.id, cursor)
			}
		}
		if len(evs) > 0 && evs[len(evs)-1].typ != "sweep" {
			t.Errorf("%s resume lost the terminal sweep event: %+v", name, evs[len(evs)-1])
		}
	}
}

// fetchEvents reads one full (closed-bus) experiment SSE stream. id may
// carry a pre-built path suffix with query parameters.
func fetchEvents(t *testing.T, c *Client, id string, hdr map[string]string) []sseEvent {
	t.Helper()
	path := id
	if !strings.Contains(path, "/events") {
		path += "/events"
	}
	return fetchSSE(t, c, "/v1/experiments/"+path, hdr)
}

// fetchSSE reads one full (closed-bus) SSE stream at path.
func fetchSSE(t *testing.T, c *Client, path string, hdr map[string]string) []sseEvent {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, c.BaseURL+path, nil)
	if err != nil {
		t.Fatal(err)
	}
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("GET %s: %d %s", path, resp.StatusCode, body)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return parseSSE(t, string(body))
}

// injectExperiment plants a live experiment record with an open bus, so
// streaming behaviour can be driven deterministically without a job.
func injectExperiment(s *Server, id string, bus *obs.Bus) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.byID[id] = &experiment{id: id, bus: bus}
}

// TestEventsHeartbeat holds a stream open on an idle bus and reads
// comment heartbeats off the wire.
func TestEventsHeartbeat(t *testing.T) {
	s, c := startServer(t, Options{Workers: 1, HeartbeatInterval: 5 * time.Millisecond})
	bus := obs.NewBus(16)
	injectExperiment(s, "exp-live", bus)

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet,
		c.BaseURL+"/v1/experiments/exp-live/events", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()

	r := bufio.NewReader(resp.Body)
	beats := 0
	for beats < 3 {
		line, err := r.ReadString('\n')
		if err != nil {
			t.Fatalf("stream ended after %d heartbeats: %v", beats, err)
		}
		if strings.TrimRight(line, "\n") == ": heartbeat" {
			beats++
		}
	}
	// A published event interleaves cleanly with heartbeats.
	bus.Publish("round", map[string]any{"round": 1})
	deadline := time.Now().Add(2 * time.Second)
	for {
		line, err := r.ReadString('\n')
		if err != nil || time.Now().After(deadline) {
			t.Fatalf("round event never arrived: %v", err)
		}
		if strings.HasPrefix(line, "event: round") {
			break
		}
	}
	bus.Close() // ends the stream
	if _, err := io.ReadAll(r); err != nil {
		t.Fatalf("drain after close: %v", err)
	}
}

// TestEventsSlowConsumerDropped opens a stream and refuses to read it
// while the bus floods: the subscriber must be dropped, the stream
// closed, and the drop surfaced on /metrics. Run under -race this also
// exercises the publish/drop/handler-teardown interleaving.
func TestEventsSlowConsumerDropped(t *testing.T) {
	s, c := startServer(t, Options{Workers: 1, EventBuffer: 1, HeartbeatInterval: time.Hour})
	bus := obs.NewBus(4)
	bus.CountDropsInto(s.evDrops)
	injectExperiment(s, "exp-slow", bus)

	resp, err := http.Get(c.BaseURL + "/v1/experiments/exp-slow/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()

	// The handler is subscribed (headers are sent after Subscribe). Flood
	// with payloads large enough to fill the socket buffers while the
	// client reads nothing; with a 1-event lag budget the subscriber must
	// get dropped. 64 KiB × 4096 ≫ any kernel buffering.
	big := strings.Repeat("x", 64*1024)
	for i := 0; i < 4096 && bus.Dropped() == 0; i++ {
		bus.Publish("round", map[string]any{"pad": big})
	}
	if bus.Dropped() == 0 {
		t.Fatal("subscriber was never dropped")
	}

	// The dropped subscription's channel is closed: the stream ends once
	// the in-flight writes drain.
	if _, err := io.ReadAll(resp.Body); err != nil {
		t.Fatalf("reading out the truncated stream: %v", err)
	}

	metrics, err := c.Metrics(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if got := metricValue(t, metrics, "rfidd_event_subscribers_dropped_total"); got < 1 {
		t.Errorf("rfidd_event_subscribers_dropped_total = %v, want >= 1", got)
	}
	bus.Close()
}

// TestEventsNotFound covers the 404 shapes: unknown id, and a record
// with no stream (cache-served).
func TestEventsNotFound(t *testing.T) {
	s, c := startServer(t, Options{Workers: 1})
	if resp, err := http.Get(c.BaseURL + "/v1/experiments/nope/events"); err != nil {
		t.Fatal(err)
	} else if resp.Body.Close(); resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown id: status %d", resp.StatusCode)
	}
	injectExperiment(s, "exp-nostream", nil)
	if resp, err := http.Get(c.BaseURL + "/v1/experiments/exp-nostream/events"); err != nil {
		t.Fatal(err)
	} else if resp.Body.Close(); resp.StatusCode != http.StatusNotFound {
		t.Errorf("bus-less record: status %d", resp.StatusCode)
	}
}

// TestClientWatch drives the typed Watch helper end to end: every event
// exactly once, terminal detection, and a resumable cursor.
func TestClientWatch(t *testing.T) {
	_, c := startServer(t, Options{Workers: 1, QueueDepth: 4, EventHistory: 2048})
	ctx := context.Background()
	sub, err := c.Submit(ctx, fastCfg())
	if err != nil {
		t.Fatal(err)
	}

	var events []WatchEvent
	err = c.Watch(ctx, sub.ID, func(ev WatchEvent) error {
		events = append(events, ev)
		return nil
	})
	if err != nil {
		t.Fatalf("watch: %v", err)
	}
	if len(events) == 0 {
		t.Fatal("watch saw no events")
	}
	last := events[len(events)-1]
	if !terminalJobEvent(last) {
		t.Errorf("watch did not end on a terminal job event: %+v", last)
	}
	rounds := 0
	var lastID uint64
	for _, ev := range events {
		if ev.Type == "round" {
			rounds++
		}
		if ev.ID <= lastID {
			t.Errorf("watch ids not strictly increasing: %d after %d", ev.ID, lastID)
		}
		lastID = ev.ID
	}
	if rounds != 3 {
		t.Errorf("watch saw %d round events, want 3", rounds)
	}

	// Watching an already-finished experiment replays the ring and still
	// terminates (the bus retains history after close).
	n := 0
	if err := c.Watch(ctx, sub.ID, func(WatchEvent) error { n++; return nil }); err != nil {
		t.Fatalf("watch after completion: %v", err)
	}
	if n != len(events) {
		t.Errorf("replay watch saw %d events, live watch saw %d", n, len(events))
	}
}

// TestAuditEndpoint runs an audited experiment and reads the confusion
// matrix back over both /v1/audit and /metrics.
func TestAuditEndpoint(t *testing.T) {
	_, c := startServer(t, Options{Workers: 1, QueueDepth: 4, EnableAudit: true})
	t.Cleanup(sim.UninstrumentAudit) // New installed the process-global hook
	ctx := context.Background()

	cfg := fastCfg()
	cfg.Strength = 4 // low strength so misses actually occur
	cfg.Rounds = 10
	sub, err := c.Submit(ctx, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Wait(ctx, sub.ID, 0); err != nil {
		t.Fatal(err)
	}

	resp, err := http.Get(c.BaseURL + "/v1/audit")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var rep audit.Report
	if err := json.NewDecoder(resp.Body).Decode(&rep); err != nil {
		t.Fatal(err)
	}
	if len(rep.Detectors) != 1 || rep.Detectors[0].Detector != "QCD-4" {
		t.Fatalf("audit report = %+v", rep.Detectors)
	}
	d := rep.Detectors[0]
	if d.Correct == 0 || d.TrueCollided == 0 {
		t.Errorf("nothing audited: %+v", d)
	}
	if d.FalseSingle == 0 || len(rep.Exemplars) == 0 {
		t.Errorf("no misses captured at l=4: %+v", d)
	}

	metrics, err := c.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(metrics, `sim_audit_verdicts_total{detector="QCD-4",l="4",cell="false_single"}`) {
		t.Error("audit series missing from /metrics")
	}
}

// TestAuditEndpointDisabled is the 404 shape without EnableAudit.
func TestAuditEndpointDisabled(t *testing.T) {
	_, c := startServer(t, Options{Workers: 1})
	resp, err := http.Get(c.BaseURL + "/v1/audit")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("status = %d, want 404", resp.StatusCode)
	}
}

// TestMetricsExpositionConformance is the whole-exposition conformance
// gate: after real traffic (including audit series and histograms) the
// full /metrics body must pass the Prometheus text-format linter, and
// the endpoint must declare the 0.0.4 content type.
func TestMetricsExpositionConformance(t *testing.T) {
	_, c := startServer(t, Options{Workers: 1, QueueDepth: 4, EnableAudit: true})
	t.Cleanup(sim.UninstrumentAudit)
	ctx := context.Background()
	sub, err := c.Submit(ctx, fastCfg())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Wait(ctx, sub.ID, 0); err != nil {
		t.Fatal(err)
	}

	resp, err := http.Get(c.BaseURL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/plain; version=0.0.4; charset=utf-8" {
		t.Errorf("Content-Type = %q", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	for _, errLint := range obs.LintPrometheus(string(body)) {
		t.Error(errLint)
	}
	// Spot-check that the families this PR added are actually present.
	for _, name := range []string{
		"obs_tracestore_spans_dropped_total",
		"rfidd_event_subscribers_dropped_total",
		"sim_audit_verdicts_total",
	} {
		if !strings.Contains(string(body), "# TYPE "+name+" counter") {
			t.Errorf("family %s missing from exposition", name)
		}
	}
}
