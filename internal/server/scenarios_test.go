package server

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/scenario"
)

// smallScenario is a sub-second workload: a 4×4 reader grid over a
// small arena with a brisk tag flow.
func smallScenario() scenario.Spec {
	return scenario.Spec{
		Name:                     "test-flow",
		SideMetres:               24,
		Readers:                  16,
		ReadRangeMetres:          5,
		InterferenceRadiusMetres: 9,
		ArrivalsPerSecond:        4000,
		DwellMicros:              150_000,
		DurationMicros:           400_000,
		SessionMicros:            2000,
		Seed:                     7,
	}
}

// TestScenarioEndToEnd drives a scenario through the full HTTP surface:
// submit (202 + Location), SSE progress with a terminal event, the
// terminal GET carrying the engine's result, and the listing.
func TestScenarioEndToEnd(t *testing.T) {
	svc := New(Options{Workers: 2, QueueDepth: 8})
	defer svc.Shutdown(context.Background())
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()
	c := NewClient(ts.URL)
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()

	sub, err := c.Scenarios().Submit(ctx, smallScenario())
	if err != nil {
		t.Fatal(err)
	}
	if sub.ID == "" || sub.Spec.Readers != 16 {
		t.Fatalf("submit response %+v", sub)
	}
	// The response carries the defaulted spec, not the sparse request.
	if sub.Spec.Strength != 8 || sub.Spec.MaxFrame != 1024 {
		t.Fatalf("spec not defaulted in response: %+v", sub.Spec)
	}

	// Watch the SSE stream to the terminal event; epochs must carry
	// monotonically non-decreasing cumulative reads.
	var epochs int
	var lastRead float64
	var terminal WatchEvent
	err = c.Scenarios().Watch(ctx, sub.ID, func(ev WatchEvent) error {
		switch ev.Type {
		case "epoch":
			epochs++
			r, _ := ev.Data["read"].(float64)
			if r < lastRead {
				t.Errorf("cumulative reads went backwards: %v after %v", r, lastRead)
			}
			lastRead = r
		case "scenario":
			terminal = ev
		}
		return nil
	})
	if err != nil {
		t.Fatalf("watch: %v", err)
	}
	if epochs == 0 {
		t.Fatal("no epoch events streamed")
	}
	if terminal.Data["status"] != "done" {
		t.Fatalf("terminal event %+v", terminal.Data)
	}

	fin, err := c.Scenarios().Wait(ctx, sub.ID, 0)
	if err != nil {
		t.Fatal(err)
	}
	if fin.Status != "done" || len(fin.Result) == 0 {
		t.Fatalf("final record %+v", fin)
	}
	var res scenario.Result
	if err := json.Unmarshal(fin.Result, &res); err != nil {
		t.Fatalf("result decode: %v", err)
	}
	if res.Read == 0 || res.Arrived == 0 || res.Colors < 2 {
		t.Fatalf("degenerate result %+v", res)
	}
	if fin.Progress == nil || int64(lastRead) != fin.Progress.Read {
		t.Fatalf("latest progress %+v does not match last epoch event (read %v)", fin.Progress, lastRead)
	}

	// The HTTP result must be the engine's own, bit-identically.
	direct, err := scenario.Run(smallScenario())
	if err != nil {
		t.Fatal(err)
	}
	want, err := json.Marshal(direct)
	if err != nil {
		t.Fatal(err)
	}
	if string(fin.Result) != string(want) {
		t.Errorf("service result differs from a direct engine run:\n%s\nvs\n%s", fin.Result, want)
	}

	list, err := c.Scenarios().List(ctx, "")
	if err != nil {
		t.Fatal(err)
	}
	if len(list) != 1 || list[0].ID != sub.ID || list[0].Result != nil {
		t.Fatalf("listing %+v", list)
	}

	// Worker count is scheduling, never arithmetic: pinned to 1 and to 4
	// workers, the service returns the direct run's bytes once the
	// spec's workers field is set aside.
	for _, workers := range []int{1, 4} {
		spec := smallScenario()
		spec.Workers = workers
		sub, err := c.Scenarios().Submit(ctx, spec)
		if err != nil {
			t.Fatal(err)
		}
		fin, err := c.Scenarios().Wait(ctx, sub.ID, 0)
		if err != nil {
			t.Fatal(err)
		}
		var res scenario.Result
		if err := json.Unmarshal(fin.Result, &res); err != nil {
			t.Fatalf("workers %d: %s finished %s: %v", workers, sub.ID, fin.Status, err)
		}
		if res.Spec.Workers != workers {
			t.Fatalf("workers %d: result spec ran at %d workers", workers, res.Spec.Workers)
		}
		res.Spec.Workers = 0
		got, err := json.Marshal(&res)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("workers %d changed the result:\n%s\nvs\n%s", workers, got, want)
		}
	}
	lintLiveMetrics(t, c, "rfidd_scenarios 3")
}

// TestScenarioValidationAndNotFound covers the request-error surface.
func TestScenarioValidationAndNotFound(t *testing.T) {
	svc := New(Options{Workers: 1, QueueDepth: 4})
	defer svc.Shutdown(context.Background())
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()
	c := NewClient(ts.URL)
	ctx := context.Background()

	if _, err := c.Scenarios().Submit(ctx, scenario.Spec{Readers: 7, ArrivalsPerSecond: 1, DwellMicros: 1, DurationMicros: 1}); err == nil {
		t.Error("non-square reader grid accepted")
	}
	if _, err := c.Scenarios().Get(ctx, "scn-404"); err == nil {
		t.Error("unknown scenario served")
	}
	if err := c.Scenarios().Cancel(ctx, "scn-404"); err == nil {
		t.Error("unknown scenario cancelled")
	}
}

// TestScenarioHugeCoverGridRejected: a spec whose coverage grid is over
// scenario.MaxCoverCells (a 1e12 m arena at a 1e-3 m read range, which
// once panicked the engine's allocation) answers 400 naming the ceiling,
// and no job starts.
func TestScenarioHugeCoverGridRejected(t *testing.T) {
	svc := New(Options{Workers: 1, QueueDepth: 4})
	defer svc.Shutdown(context.Background())
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()

	spec := smallScenario()
	spec.SideMetres, spec.ReadRangeMetres = 1e12, 1e-3
	body, err := json.Marshal(ScenarioSubmitRequest{Spec: spec})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/scenarios", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	msg, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d (%s), want 400", resp.StatusCode, msg)
	}
	if ceiling := strconv.Itoa(scenario.MaxCoverCells) + "-cell ceiling"; !strings.Contains(string(msg), ceiling) {
		t.Errorf("error %s does not name the %s", msg, ceiling)
	}
	ctx := context.Background()
	c := NewClient(ts.URL)
	if recs, err := c.Scenarios().List(ctx, ""); err != nil || len(recs) != 0 {
		t.Errorf("scenarios listed after the rejected submit: %v, %v", recs, err)
	}
	text, err := c.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if got := metricValue(t, text, "rfidd_jobs_submitted_total"); got != 0 {
		t.Errorf("rfidd_jobs_submitted_total = %v after the rejected submit", got)
	}
}

// TestScenarioCancel: DELETE on a running scenario cancels its job; the
// record goes terminal and the SSE stream still ends with the terminal
// event.
func TestScenarioCancel(t *testing.T) {
	svc := New(Options{Workers: 1, QueueDepth: 4})
	defer svc.Shutdown(context.Background())
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()
	c := NewClient(ts.URL)
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()

	spec := smallScenario()
	spec.DurationMicros = 3_600_000_000 // an hour of simulated time: never finishes in test wall time
	sub, err := c.Scenarios().Submit(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	// Wait until it is actually running (an epoch reported) so the
	// cancel exercises the in-flight path, not the queued one.
	for {
		got, err := c.Scenarios().Get(ctx, sub.ID)
		if err != nil {
			t.Fatal(err)
		}
		if got.Progress != nil {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if err := c.Scenarios().Cancel(ctx, sub.ID); err != nil {
		t.Fatal(err)
	}
	fin, err := c.Scenarios().Wait(ctx, sub.ID, 0)
	if err != nil {
		t.Fatal(err)
	}
	if fin.Status != "canceled" {
		t.Fatalf("status %q after cancel", fin.Status)
	}
	// The watcher goroutine closes the bus on the terminal state, so a
	// fresh SSE drain ends (with the terminal "scenario" event).
	sawTerminal := false
	err = c.Scenarios().Watch(ctx, sub.ID, func(ev WatchEvent) error {
		if ev.Type == "scenario" {
			sawTerminal = true
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if !sawTerminal {
		t.Error("no terminal scenario event after cancel")
	}
}
