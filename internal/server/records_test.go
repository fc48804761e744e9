package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/jobs"
	"repro/internal/sim"
	"repro/internal/sweep"
)

// TestRecordLifecycleAcrossKinds drives the shared record surface of
// every kind: unknown IDs 404 on GET, DELETE and /events naming the
// kind, a bogus ?status= is a 400, ?status= filters each listing, a
// malformed or unknown-field POST body is a 400, and queued work
// answers 202 with its Location.
func TestRecordLifecycleAcrossKinds(t *testing.T) {
	_, c := startServer(t, Options{Workers: 2, QueueDepth: 8})
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()

	slowCfg := sim.Config{
		Tags: 3000, Seed: 1, Rounds: 2000,
		Algorithm: sim.AlgFSA, FrameSize: 1500,
		Detector: sim.DetQCD, Strength: 8, Workers: 1,
	}
	slowSweep := sweep.Spec{
		Base: fastCfg(),
		Axes: []sweep.Axis{{Field: sweep.FieldSeed, Range: &sweep.Range{From: 1, To: 32}}},
	}
	slowSweep.Base.Tags, slowSweep.Base.Rounds = 300, 30
	slowScenario := smallScenario()
	slowScenario.DurationMicros = 3_600_000_000

	queuedCfg := fastCfg()
	queuedCfg.Seed = 99 // uncached: the POST queues work
	kinds := []struct {
		path, noun, list string
		submit           func(slow bool) (string, error)
		cancel, wait     func(id string) error
		queued           any // a POST body that queues work
	}{
		{
			path: "/v1/experiments", noun: "experiment", list: "experiments",
			submit: func(slow bool) (string, error) {
				cfg := fastCfg()
				if slow {
					cfg = slowCfg
				}
				r, err := c.Experiments().Submit(ctx, cfg)
				return r.ID, err
			},
			cancel: func(id string) error { return c.Experiments().Cancel(ctx, id) },
			wait:   func(id string) error { _, err := c.Experiments().Wait(ctx, id, 0); return err },
			queued: SubmitRequest{Config: queuedCfg},
		},
		{
			path: "/v1/sweeps", noun: "sweep", list: "sweeps",
			submit: func(slow bool) (string, error) {
				spec := fig5MiniSpec()
				if slow {
					spec = slowSweep
				}
				r, err := c.Sweeps().Submit(ctx, spec)
				return r.ID, err
			},
			cancel: func(id string) error { return c.Sweeps().Cancel(ctx, id) },
			wait:   func(id string) error { _, err := c.Sweeps().Wait(ctx, id, 0); return err },
			queued: SweepSubmitRequest{Spec: fig5MiniSpec()},
		},
		{
			path: "/v1/scenarios", noun: "scenario", list: "scenarios",
			submit: func(slow bool) (string, error) {
				spec := smallScenario()
				if slow {
					spec = slowScenario
				}
				r, err := c.Scenarios().Submit(ctx, spec)
				return r.ID, err
			},
			cancel: func(id string) error { return c.Scenarios().Cancel(ctx, id) },
			wait:   func(id string) error { _, err := c.Scenarios().Wait(ctx, id, 0); return err },
			queued: ScenarioSubmitRequest{Spec: smallScenario()},
		},
	}
	for _, k := range kinds {
		t.Run(k.noun, func(t *testing.T) {
			for _, probe := range []struct{ method, path string }{
				{http.MethodGet, k.path + "/nope-404"},
				{http.MethodDelete, k.path + "/nope-404"},
				{http.MethodGet, k.path + "/nope-404/events"},
			} {
				code, body := call(t, probe.method, c.BaseURL+probe.path)
				if code != http.StatusNotFound || !strings.Contains(string(body), "unknown "+k.noun+" nope-404") {
					t.Errorf("%s %s: %d %s, want 404 naming the %s", probe.method, probe.path, code, body, k.noun)
				}
			}
			if code, body := call(t, http.MethodGet, c.BaseURL+k.path+"?status=bogus"); code != http.StatusBadRequest {
				t.Errorf("?status=bogus: %d %s, want 400", code, body)
			}

			// Leave one record done and one canceled.
			var ids []string
			for _, slow := range []bool{false, true} {
				id, err := k.submit(slow)
				if err == nil && slow {
					err = k.cancel(id)
				}
				if err == nil {
					err = k.wait(id)
				}
				if err != nil {
					t.Fatal(err)
				}
				ids = append(ids, id)
			}
			doneID, canceledID := ids[0], ids[1]
			for filter, want := range map[string][]string{
				"":         {doneID, canceledID},
				"done":     {doneID},
				"canceled": {canceledID},
				"running":  nil,
			} {
				code, body := call(t, http.MethodGet, c.BaseURL+k.path+"?status="+filter)
				if code != http.StatusOK {
					t.Fatalf("?status=%s: %d %s", filter, code, body)
				}
				var listing map[string][]struct {
					ID     string          `json:"id"`
					Status string          `json:"status"`
					Result json.RawMessage `json:"result"`
				}
				if err := json.Unmarshal(body, &listing); err != nil {
					t.Fatalf("?status=%s: %v in %s", filter, err, body)
				}
				var got []string
				for _, rec := range listing[k.list] {
					got = append(got, rec.ID)
					if rec.Result != nil {
						t.Errorf("?status=%s: %s listed with its result", filter, rec.ID)
					}
				}
				if strings.Join(got, ",") != strings.Join(want, ",") {
					t.Errorf("?status=%s listed %v, want %v", filter, got, want)
				}
			}

			for _, bad := range []string{`{"config":`, `{"bogus":1}`} {
				if code, _, body := postRaw(t, c.BaseURL+k.path, []byte(bad)); code != http.StatusBadRequest ||
					!strings.Contains(string(body), "bad request body") {
					t.Errorf("POST %s %s: %d %s, want 400", k.path, bad, code, body)
				}
			}
			raw, err := json.Marshal(k.queued)
			if err != nil {
				t.Fatal(err)
			}
			code, hdr, body := postRaw(t, c.BaseURL+k.path, raw)
			var rec struct {
				ID string `json:"id"`
			}
			if err := json.Unmarshal(body, &rec); err != nil {
				t.Fatalf("POST %s: %v in %s", k.path, err, body)
			}
			if loc := hdr.Get("Location"); code != http.StatusAccepted || rec.ID == "" || loc != k.path+"/"+rec.ID {
				t.Errorf("POST %s: %d, Location %q for %q, want 202 with %s/<id>", k.path, code, loc, rec.ID, k.path)
			}
		})
	}
}

// postRaw POSTs body as JSON and returns the status, headers and body.
func postRaw(t *testing.T, url string, body []byte) (int, http.Header, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, resp.Header, out
}

// call issues one body-less request and returns the status and body.
func call(t *testing.T, method, url string) (int, []byte) {
	t.Helper()
	req, err := http.NewRequest(method, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
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

// TestPrunedExperimentsLeaveThePool: past the registry's cap the oldest
// terminal experiments are evicted and no longer served, and the
// registry's gauge stays bounded by the cap.
func TestPrunedExperimentsLeaveThePool(t *testing.T) {
	s, c := startServer(t, Options{Workers: 1, QueueDepth: 4})
	const capacity, runs = 2, 6
	s.mu.Lock()
	s.experiments.cap = capacity
	s.mu.Unlock()
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()

	var ids []string
	for i := 0; i < runs; i++ {
		cfg := fastCfg()
		cfg.Seed += uint64(i) // uncached: every run reaches the pool
		sub, err := c.Experiments().Submit(ctx, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.Experiments().Wait(ctx, sub.ID, 0); err != nil {
			t.Fatal(err)
		}
		ids = append(ids, sub.ID)
	}
	for _, id := range ids[:runs-capacity] {
		if _, err := c.Experiments().Get(ctx, id); err == nil {
			t.Errorf("pruned %s is still served", id)
		}
	}
	metrics, err := c.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if got := metricValue(t, metrics, "rfidd_experiments"); got != capacity {
		t.Errorf("rfidd_experiments = %v, want %d", got, capacity)
	}
}

// TestSubmitErrorCodes pins how a prepare or start error answers: a
// full queue 503 with Retry-After, a closed pool 503, a server-side
// failure (an unkeyable canonical config) 500, anything else 400.
func TestSubmitErrorCodes(t *testing.T) {
	for _, tc := range []struct {
		err        error
		code       int
		retryAfter string
	}{
		{fmt.Errorf("submit: %w", jobs.ErrQueueFull), http.StatusServiceUnavailable, "1"},
		{jobs.ErrClosed, http.StatusServiceUnavailable, ""},
		{internalError{errors.New("keying")}, http.StatusInternalServerError, ""},
		{errors.New("sim: tags must be >= 1"), http.StatusBadRequest, ""},
	} {
		w := httptest.NewRecorder()
		writeSubmitError(w, tc.err)
		var body errorResponse
		if err := json.Unmarshal(w.Body.Bytes(), &body); err != nil || body.Error != tc.err.Error() {
			t.Errorf("%v: body %q (%v)", tc.err, w.Body.String(), err)
		}
		if w.Code != tc.code || w.Header().Get("Retry-After") != tc.retryAfter {
			t.Errorf("%v: HTTP %d Retry-After %q, want %d %q",
				tc.err, w.Code, w.Header().Get("Retry-After"), tc.code, tc.retryAfter)
		}
	}
}
