package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"time"

	"repro/internal/obs"
	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/sweep"
)

// Client is a thin typed client for the rfidd API, used by the
// end-to-end tests and suitable for scripting sweeps against a running
// daemon.
type Client struct {
	// BaseURL is the server root, e.g. "http://127.0.0.1:8080".
	BaseURL string
	// HTTPClient defaults to http.DefaultClient.
	HTTPClient *http.Client
}

// NewClient returns a client for the given base URL.
func NewClient(baseURL string) *Client { return &Client{BaseURL: baseURL} }

func (c *Client) httpClient() *http.Client {
	if c.HTTPClient != nil {
		return c.HTTPClient
	}
	return http.DefaultClient
}

// apiError is a non-2xx response surfaced as an error.
type apiError struct {
	StatusCode int
	Message    string
}

func (e *apiError) Error() string {
	return fmt.Sprintf("server: HTTP %d: %s", e.StatusCode, e.Message)
}

// apiErrorOf wraps a non-2xx response body, preferring the uniform
// error body's message when the body is one.
func apiErrorOf(code int, raw []byte) error {
	var e errorResponse
	if json.Unmarshal(raw, &e) == nil && e.Error != "" {
		return &apiError{StatusCode: code, Message: e.Error}
	}
	return &apiError{StatusCode: code, Message: string(raw)}
}

func (c *Client) do(ctx context.Context, method, path string, body, out any) error {
	_, err := c.doTraced(ctx, method, path, "", body, out)
	return err
}

// doTraced is do with trace propagation: a non-empty traceID is sent
// as X-Trace-Id, and the server's effective trace ID (minted when none
// was sent) is returned from the response header.
func (c *Client) doTraced(ctx context.Context, method, path, traceID string, body, out any) (string, error) {
	raw, gotTrace, err := c.send(ctx, method, path, traceID, body)
	if err != nil || out == nil {
		return gotTrace, err
	}
	return gotTrace, json.Unmarshal(raw, out)
}

// fetchText GETs a non-JSON endpoint and returns its body.
func (c *Client) fetchText(ctx context.Context, path string) (string, error) {
	raw, _, err := c.send(ctx, http.MethodGet, path, "", nil)
	if err != nil {
		return "", err
	}
	return string(raw), nil
}

// send runs one request (body JSON-encoded when non-nil, traceID sent
// as X-Trace-Id when set) and returns the 2xx response body and the
// server's effective trace ID.
func (c *Client) send(ctx context.Context, method, path, traceID string, body any) ([]byte, string, error) {
	var rdr io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			return nil, "", err
		}
		rdr = bytes.NewReader(b)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.BaseURL+path, rdr)
	if err != nil {
		return nil, "", err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if traceID != "" {
		req.Header.Set(TraceHeader, traceID)
	}
	resp, err := c.httpClient().Do(req)
	if err != nil {
		return nil, "", err
	}
	defer resp.Body.Close()
	gotTrace := resp.Header.Get(TraceHeader)
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, gotTrace, err
	}
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		return nil, gotTrace, apiErrorOf(resp.StatusCode, raw)
	}
	return raw, gotTrace, nil
}

// Submit enqueues an experiment and returns its (possibly cached or
// coalesced) record.
func (c *Client) Submit(ctx context.Context, cfg sim.Config) (ExperimentResponse, error) {
	var out ExperimentResponse
	err := c.do(ctx, http.MethodPost, "/v1/experiments", SubmitRequest{Config: cfg}, &out)
	return out, err
}

// Get fetches one experiment by ID.
func (c *Client) Get(ctx context.Context, id string) (ExperimentResponse, error) {
	var out ExperimentResponse
	err := c.do(ctx, http.MethodGet, "/v1/experiments/"+id, nil, &out)
	return out, err
}

// List fetches all experiment summaries.
func (c *Client) List(ctx context.Context) ([]ExperimentResponse, error) {
	var out ListResponse
	err := c.do(ctx, http.MethodGet, "/v1/experiments", nil, &out)
	return out.Experiments, err
}

// ListStatus fetches experiment summaries in one lifecycle state
// (queued, running, done, failed or canceled).
func (c *Client) ListStatus(ctx context.Context, status string) ([]ExperimentResponse, error) {
	var out ListResponse
	err := c.do(ctx, http.MethodGet, "/v1/experiments?status="+url.QueryEscape(status), nil, &out)
	return out.Experiments, err
}

// Cancel requests cancellation of a queued or running experiment.
func (c *Client) Cancel(ctx context.Context, id string) error {
	return c.do(ctx, http.MethodDelete, "/v1/experiments/"+id, nil, nil)
}

// SubmitSweep schedules a parameter-grid sweep and returns its record.
func (c *Client) SubmitSweep(ctx context.Context, spec sweep.Spec) (SweepResponse, error) {
	var out SweepResponse
	err := c.do(ctx, http.MethodPost, "/v1/sweeps", SweepSubmitRequest{Spec: spec}, &out)
	return out, err
}

// SubmitSweepTraced is SubmitSweep under a service-level trace: the
// given trace ID (minted by the server when empty) is propagated, and
// the effective ID is returned for a later Trace call.
func (c *Client) SubmitSweepTraced(ctx context.Context, spec sweep.Spec, traceID string) (SweepResponse, string, error) {
	var out SweepResponse
	id, err := c.doTraced(ctx, http.MethodPost, "/v1/sweeps", traceID, SweepSubmitRequest{Spec: spec}, &out)
	return out, id, err
}

// SubmitTraced is Submit under a service-level trace; see
// SubmitSweepTraced.
func (c *Client) SubmitTraced(ctx context.Context, cfg sim.Config, traceID string) (ExperimentResponse, string, error) {
	var out ExperimentResponse
	id, err := c.doTraced(ctx, http.MethodPost, "/v1/experiments", traceID, SubmitRequest{Config: cfg}, &out)
	return out, id, err
}

// Traces lists the server's retained service-level traces.
func (c *Client) Traces(ctx context.Context) ([]obs.TraceSummary, error) {
	var out TracesResponse
	err := c.do(ctx, http.MethodGet, "/v1/traces", nil, &out)
	return out.Traces, err
}

// Trace fetches one joined trace in the given format ("" or "chrome"
// for Chrome trace-event JSON, "jsonl" for JSONL).
func (c *Client) Trace(ctx context.Context, id, format string) (string, error) {
	path := "/v1/traces/" + id
	if format != "" {
		path += "?format=" + url.QueryEscape(format)
	}
	return c.fetchText(ctx, path)
}

// Statusz fetches the /debug/statusz HTML snapshot.
func (c *Client) Statusz(ctx context.Context) (string, error) {
	return c.fetchText(ctx, "/debug/statusz")
}

// GetSweep fetches one sweep summary by ID.
func (c *Client) GetSweep(ctx context.Context, id string) (SweepResponse, error) {
	var out SweepResponse
	err := c.do(ctx, http.MethodGet, "/v1/sweeps/"+id, nil, &out)
	return out, err
}

// ListSweeps fetches all sweep summaries.
func (c *Client) ListSweeps(ctx context.Context) ([]SweepResponse, error) {
	var out SweepListResponse
	err := c.do(ctx, http.MethodGet, "/v1/sweeps", nil, &out)
	return out.Sweeps, err
}

// SweepCells fetches a sweep's per-cell records; status "" lists every
// cell, withResults embeds each cell's aggregate bytes.
func (c *Client) SweepCells(ctx context.Context, id, status string, withResults bool) ([]SweepCellResponse, error) {
	q := url.Values{}
	if status != "" {
		q.Set("status", status)
	}
	if withResults {
		q.Set("results", "1")
	}
	path := "/v1/sweeps/" + id + "/cells"
	if enc := q.Encode(); enc != "" {
		path += "?" + enc
	}
	var out SweepCellsResponse
	err := c.do(ctx, http.MethodGet, path, nil, &out)
	return out.Cells, err
}

// SweepReport fetches the merged paper-style output, format "table" or
// "csv".
func (c *Client) SweepReport(ctx context.Context, id, format string) (string, error) {
	path := "/v1/sweeps/" + id + "/report"
	if format != "" {
		path += "?format=" + url.QueryEscape(format)
	}
	return c.fetchText(ctx, path)
}

// CancelSweep requests cancellation of a running sweep.
func (c *Client) CancelSweep(ctx context.Context, id string) error {
	return c.do(ctx, http.MethodDelete, "/v1/sweeps/"+id, nil, nil)
}

// WaitSweep polls GetSweep until the sweep is terminal or ctx expires.
// A zero interval polls every 10 ms.
func (c *Client) WaitSweep(ctx context.Context, id string, interval time.Duration) (SweepResponse, error) {
	return poll(ctx, id, interval, c.GetSweep)
}

// WatchSweep streams a sweep's per-cell progress over SSE, invoking fn
// for every event. It returns nil once the terminal "sweep" event
// arrives; transient stream drops reconnect with Last-Event-ID.
func (c *Client) WatchSweep(ctx context.Context, id string, fn func(WatchEvent) error) error {
	isTerminal := func(ev WatchEvent) bool { return ev.Type == "sweep" }
	return c.watch(ctx, "/v1/sweeps/"+id+"/events", isTerminal, fn, ended(ctx, id, c.GetSweep))
}

// SubmitScenario schedules a streaming warehouse scenario and returns
// its record.
func (c *Client) SubmitScenario(ctx context.Context, spec scenario.Spec) (ScenarioResponse, error) {
	var out ScenarioResponse
	err := c.do(ctx, http.MethodPost, "/v1/scenarios", ScenarioSubmitRequest{Spec: spec}, &out)
	return out, err
}

// GetScenario fetches one scenario by ID (status, latest progress and,
// when done, the result).
func (c *Client) GetScenario(ctx context.Context, id string) (ScenarioResponse, error) {
	var out ScenarioResponse
	err := c.do(ctx, http.MethodGet, "/v1/scenarios/"+id, nil, &out)
	return out, err
}

// ListScenarios fetches all scenario summaries.
func (c *Client) ListScenarios(ctx context.Context) ([]ScenarioResponse, error) {
	var out ScenarioListResponse
	err := c.do(ctx, http.MethodGet, "/v1/scenarios", nil, &out)
	return out.Scenarios, err
}

// CancelScenario requests cancellation of a queued or running scenario.
func (c *Client) CancelScenario(ctx context.Context, id string) error {
	return c.do(ctx, http.MethodDelete, "/v1/scenarios/"+id, nil, nil)
}

// WaitScenario polls GetScenario until the run is terminal or ctx
// expires. A zero interval polls every 10 ms.
func (c *Client) WaitScenario(ctx context.Context, id string, interval time.Duration) (ScenarioResponse, error) {
	return poll(ctx, id, interval, c.GetScenario)
}

// WatchScenario streams a scenario's per-epoch progress over SSE,
// invoking fn for every event. It returns nil once the terminal
// "scenario" event arrives; transient stream drops reconnect with
// Last-Event-ID.
func (c *Client) WatchScenario(ctx context.Context, id string, fn func(WatchEvent) error) error {
	isTerminal := func(ev WatchEvent) bool { return ev.Type == "scenario" }
	return c.watch(ctx, "/v1/scenarios/"+id+"/events", isTerminal, fn, ended(ctx, id, c.GetScenario))
}

// Wait polls Get until the experiment reaches a terminal status or ctx
// expires. A zero interval polls every 10 ms.
func (c *Client) Wait(ctx context.Context, id string, interval time.Duration) (ExperimentResponse, error) {
	return poll(ctx, id, interval, c.Get)
}

// poll is the loop behind Wait, WaitSweep and WaitScenario: get the
// record until its status is terminal or ctx expires, every interval
// (10 ms when zero).
func poll[R response[R]](ctx context.Context, id string, interval time.Duration,
	get func(context.Context, string) (R, error)) (R, error) {
	if interval <= 0 {
		interval = 10 * time.Millisecond
	}
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	for {
		resp, err := get(ctx, id)
		if err != nil || terminalStatus(resp.state()) {
			return resp, err
		}
		select {
		case <-ticker.C:
		case <-ctx.Done():
			return resp, ctx.Err()
		}
	}
}

// ended is the probe behind Watch, WatchSweep and WatchScenario: after
// an early stream drop it reports whether the record is already
// terminal.
func ended[R response[R]](ctx context.Context, id string,
	get func(context.Context, string) (R, error)) func() (bool, error) {
	return func() (bool, error) {
		resp, err := get(ctx, id)
		if err != nil {
			return false, err
		}
		return terminalStatus(resp.state()), nil
	}
}

// WatchEvent is one telemetry event received by Watch.
type WatchEvent struct {
	// ID is the bus sequence number (the SSE id field).
	ID uint64
	// Type is the event type: "round", "frame", "audit" or "job".
	Type string
	// Data is the decoded event payload.
	Data map[string]any
}

// terminalJobEvent reports whether ev announces a terminal job state.
func terminalJobEvent(ev WatchEvent) bool {
	to, _ := ev.Data["to"].(string)
	return ev.Type == "job" && terminalStatus(to)
}

// Watch streams an experiment's live telemetry over SSE, invoking fn
// for every event (heartbeat comments are filtered out). It returns nil
// once the experiment reaches a terminal state, or fn's error if fn
// returns one. Transient stream drops are survived by reconnecting with
// Last-Event-ID, so fn sees every event still in the server's replay
// ring exactly once.
func (c *Client) Watch(ctx context.Context, id string, fn func(WatchEvent) error) error {
	return c.watch(ctx, "/v1/experiments/"+id+"/events", terminalJobEvent, fn, ended(ctx, id, c.Get))
}

// terminalStatus reports whether an API status string is terminal.
func terminalStatus(status string) bool {
	switch status {
	case "done", "failed", "canceled":
		return true
	}
	return false
}

// watch is the reconnecting SSE loop shared by every Watch method:
// isTerminal spots the stream's natural end, probe decides after an
// early stream drop whether the watched object already finished.
func (c *Client) watch(ctx context.Context, path string, isTerminal func(WatchEvent) bool,
	fn func(WatchEvent) error, probe func() (bool, error)) error {
	var last uint64
	for {
		terminal, err := c.watchOnce(ctx, path, isTerminal, &last, fn)
		if terminal || err != nil {
			return err
		}
		if ctx.Err() != nil {
			return ctx.Err()
		}
		// The stream ended without a terminal event (e.g. this consumer
		// was dropped for lagging). Poll once: if the work already ended
		// we are done, otherwise reconnect and resume.
		done, err := probe()
		if err != nil {
			return err
		}
		if done {
			return nil
		}
	}
}

// watchOnce runs one SSE connection until the stream ends. It reports
// whether a terminal event was seen; a non-nil error is fatal to the
// whole watch (API errors, fn failures, context cancellation).
func (c *Client) watchOnce(ctx context.Context, path string, isTerminal func(WatchEvent) bool,
	last *uint64, fn func(WatchEvent) error) (bool, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.BaseURL+path, nil)
	if err != nil {
		return false, err
	}
	req.Header.Set("Accept", "text/event-stream")
	if *last > 0 {
		req.Header.Set("Last-Event-ID", strconv.FormatUint(*last, 10))
	}
	resp, err := c.httpClient().Do(req)
	if err != nil {
		if ctx.Err() != nil {
			return false, ctx.Err()
		}
		return false, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		raw, _ := io.ReadAll(resp.Body)
		return false, apiErrorOf(resp.StatusCode, raw)
	}

	var ev WatchEvent
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case line == "":
			// Blank line dispatches the accumulated event.
			if ev.Type != "" || ev.ID != 0 {
				if ev.ID > *last {
					*last = ev.ID
				}
				if err := fn(ev); err != nil {
					return false, err
				}
				if isTerminal(ev) {
					return true, nil
				}
			}
			ev = WatchEvent{}
		case strings.HasPrefix(line, ":"): // heartbeat comment
		case strings.HasPrefix(line, "id: "):
			ev.ID, _ = strconv.ParseUint(line[len("id: "):], 10, 64)
		case strings.HasPrefix(line, "event: "):
			ev.Type = line[len("event: "):]
		case strings.HasPrefix(line, "data: "):
			_ = json.Unmarshal([]byte(line[len("data: "):]), &ev.Data)
		}
	}
	if ctx.Err() != nil {
		return false, ctx.Err()
	}
	return false, nil // stream ended; caller decides whether to resume
}

// Health probes /healthz.
func (c *Client) Health(ctx context.Context) error {
	return c.do(ctx, http.MethodGet, "/healthz", nil, nil)
}

// Metrics returns the raw Prometheus text exposition.
func (c *Client) Metrics(ctx context.Context) (string, error) {
	return c.fetchText(ctx, "/metrics")
}

// HistoryIndex lists the history store's retained series.
func (c *Client) HistoryIndex(ctx context.Context) (HistoryIndexResponse, error) {
	var out HistoryIndexResponse
	err := c.do(ctx, http.MethodGet, "/v1/metrics/history", nil, &out)
	return out, err
}

// MetricsHistory fetches derived points for one or more series
// selectors over the trailing window (0 = full retention). reduce ""
// takes the server's per-kind default (counters rate, gauges raw,
// histograms avg).
func (c *Client) MetricsHistory(ctx context.Context, selectors []string, window time.Duration, reduce string) (HistoryResponse, error) {
	q := url.Values{}
	for _, sel := range selectors {
		q.Add("series", sel)
	}
	if window > 0 {
		q.Set("window", window.String())
	}
	if reduce != "" {
		q.Set("reduce", reduce)
	}
	var out HistoryResponse
	err := c.do(ctx, http.MethodGet, "/v1/metrics/history?"+q.Encode(), nil, &out)
	return out, err
}

// Alerts fetches every SLO objective's alert status.
func (c *Client) Alerts(ctx context.Context) (AlertsResponse, error) {
	var out AlertsResponse
	err := c.do(ctx, http.MethodGet, "/v1/alerts", nil, &out)
	return out, err
}

// ErrStopWatch, returned from a watch callback, ends the watch cleanly.
var ErrStopWatch = errors.New("stop watch")

// WatchAlerts streams SLO alert transitions (SSE). The alert bus's
// replay ring means a fresh watch first delivers the retained
// transition history, then live transitions. The watch runs until ctx
// ends or fn returns an error; ErrStopWatch ends it with a nil error.
func (c *Client) WatchAlerts(ctx context.Context, fn func(WatchEvent) error) error {
	err := c.watch(ctx, "/v1/alerts/events",
		func(WatchEvent) bool { return false }, fn,
		func() (bool, error) { return false, nil })
	if errors.Is(err, ErrStopWatch) {
		return nil
	}
	return err
}
