package server

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
	"strings"
	"sync"
	"testing"
)

// TestMetricsIncludesSimAndTransitionSeries checks /metrics carries the
// whole stack from one registry walk: simulator series, job transition
// counts, pool load, and cache effectiveness.
func TestMetricsIncludesSimAndTransitionSeries(t *testing.T) {
	_, c := startServer(t, Options{Workers: 1, QueueDepth: 8})
	ctx := context.Background()

	resp, err := c.Experiments().Submit(ctx, fastCfg())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Experiments().Wait(ctx, resp.ID, 0); err != nil {
		t.Fatal(err)
	}
	text, err := c.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	// Simulator instrumentation is process-global; another test's server
	// may have re-pointed it, so only require presence of the family.
	for _, want := range []string{
		"# TYPE sim_rounds_total counter",
		`sim_slots_total{type="single"}`,
		`rfidd_job_transitions_total{from="new",to="queued"} 1`,
		`rfidd_job_transitions_total{from="queued",to="running"} 1`,
		`rfidd_job_transitions_total{from="running",to="done"} 1`,
		"rfidd_cache_hit_ratio",
		"rfidd_worker_utilisation",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

func get(t *testing.T, url string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, body
}

// TestTraceEndpoint covers the per-experiment trace route: Chrome JSON
// with round spans, the JSONL flavour, and both 404 shapes.
func TestTraceEndpoint(t *testing.T) {
	_, c := startServer(t, Options{Workers: 1, QueueDepth: 8})
	ctx := context.Background()

	resp, err := c.Experiments().Submit(ctx, fastCfg())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Experiments().Wait(ctx, resp.ID, 0); err != nil {
		t.Fatal(err)
	}

	code, body := get(t, c.BaseURL+"/v1/experiments/"+resp.ID+"/trace")
	if code != http.StatusOK {
		t.Fatalf("trace status = %d: %s", code, body)
	}
	var trace struct {
		TraceEvents []struct {
			Name string `json:"name"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(body, &trace); err != nil {
		t.Fatalf("trace is not Chrome JSON: %v", err)
	}
	var rounds int
	for _, ev := range trace.TraceEvents {
		if ev.Name == "round" {
			rounds++
		}
	}
	if rounds != fastCfg().Rounds {
		t.Errorf("trace has %d round spans, want %d", rounds, fastCfg().Rounds)
	}

	code, body = get(t, c.BaseURL+"/v1/experiments/"+resp.ID+"/trace?format=jsonl")
	if code != http.StatusOK {
		t.Fatalf("jsonl status = %d", code)
	}
	for i, ln := range strings.Split(strings.TrimSpace(string(body)), "\n") {
		var ev map[string]any
		if err := json.Unmarshal([]byte(ln), &ev); err != nil {
			t.Fatalf("jsonl line %d: %v", i+1, err)
		}
	}

	if code, _ = get(t, c.BaseURL+"/v1/experiments/"+resp.ID+"/trace?format=bogus"); code != http.StatusBadRequest {
		t.Errorf("bogus format status = %d, want 400", code)
	}
	if code, _ = get(t, c.BaseURL+"/v1/experiments/nope/trace"); code != http.StatusNotFound {
		t.Errorf("unknown id status = %d, want 404", code)
	}

	// A cache-hit record has no run of its own, hence no trace.
	resp2, err := c.Experiments().Submit(ctx, fastCfg())
	if err != nil {
		t.Fatal(err)
	}
	if resp2.ID == resp.ID {
		t.Fatal("resubmission did not mint a new record")
	}
	if code, _ = get(t, c.BaseURL+"/v1/experiments/"+resp2.ID+"/trace"); code != http.StatusNotFound {
		t.Errorf("cached record trace status = %d, want 404", code)
	}
}

// TestTraceDisabled checks that turning the trace store off turns
// tracing off entirely: even a run record reports no trace, and
// /debug/trace is empty.
func TestTraceDisabled(t *testing.T) {
	_, c := startServer(t, Options{Workers: 1, QueueDepth: 8, TraceStoreTraces: -1})
	ctx := context.Background()
	resp, err := c.Experiments().Submit(ctx, fastCfg())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Experiments().Wait(ctx, resp.ID, 0); err != nil {
		t.Fatal(err)
	}
	if code, _ := get(t, c.BaseURL+"/v1/experiments/"+resp.ID+"/trace"); code != http.StatusNotFound {
		t.Errorf("trace status with tracing disabled = %d, want 404", code)
	}
	code, body := get(t, c.BaseURL+"/debug/trace")
	if code != http.StatusOK || !strings.Contains(string(body), `"traceEvents":[]`) {
		t.Errorf("/debug/trace with tracing disabled = %d %s, want 200 and no events", code, body)
	}
}

// TestPoolTraceEndpoint checks /debug/trace serves the store view as
// Chrome JSON: every retained trace's spans, the pool's queue-wait and
// run spans among them.
func TestPoolTraceEndpoint(t *testing.T) {
	_, c := startServer(t, Options{Workers: 1, QueueDepth: 8})
	ctx := context.Background()
	for seed := uint64(1); seed <= 2; seed++ {
		cfg := fastCfg()
		cfg.Seed = seed
		resp, err := c.Experiments().Submit(ctx, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.Experiments().Wait(ctx, resp.ID, 0); err != nil {
			t.Fatal(err)
		}
	}
	code, body := get(t, c.BaseURL+"/debug/trace")
	if code != http.StatusOK {
		t.Fatalf("/debug/trace status = %d", code)
	}
	traces := map[any]bool{}
	counts := map[string]int{}
	for _, ev := range chromeTrace(t, string(body)) {
		traces[ev.Args["trace"]] = true
		counts[ev.Name]++
	}
	if len(traces) != 2 || counts["queue-wait"] != 2 || counts["run"] != 2 {
		t.Errorf("/debug/trace holds %d traces, spans %v; want both runs' queue-wait and run", len(traces), counts)
	}
}

// TestPprofGated checks the pprof handlers exist only behind the option.
func TestPprofGated(t *testing.T) {
	_, c := startServer(t, Options{Workers: 1})
	if code, _ := get(t, c.BaseURL+"/debug/pprof/"); code != http.StatusNotFound {
		t.Errorf("pprof served without EnablePprof: %d", code)
	}
	_, c2 := startServer(t, Options{Workers: 1, EnablePprof: true})
	code, body := get(t, c2.BaseURL+"/debug/pprof/cmdline")
	if code != http.StatusOK || len(body) == 0 {
		t.Errorf("pprof cmdline = %d (%d bytes), want 200 with body", code, len(body))
	}
}

// TestRequestLogging checks the slog request log carries method, path,
// status, and the submit log its cache-hit marker.
func TestRequestLogging(t *testing.T) {
	var mu sync.Mutex
	var buf bytes.Buffer
	logger := slog.New(slog.NewTextHandler(syncWriter{mu: &mu, w: &buf}, nil))
	_, c := startServer(t, Options{Workers: 1, QueueDepth: 8, Logger: logger})
	ctx := context.Background()

	resp, err := c.Experiments().Submit(ctx, fastCfg())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Experiments().Wait(ctx, resp.ID, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Experiments().Submit(ctx, fastCfg()); err != nil { // cache hit
		t.Fatal(err)
	}

	mu.Lock()
	out := buf.String()
	mu.Unlock()
	for _, want := range []string{
		`msg=request method=POST path=/v1/experiments status=202`,
		`msg="experiment submitted" id=` + resp.ID + " cache_hit=false",
		"cache_hit=true",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("log stream missing %q:\n%s", want, out)
		}
	}
}

type syncWriter struct {
	mu *sync.Mutex
	w  io.Writer
}

func (s syncWriter) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.w.Write(p)
}
