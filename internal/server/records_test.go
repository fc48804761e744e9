package server

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"repro/internal/sim"
	"repro/internal/sweep"
)

// TestRecordLifecycleAcrossKinds drives the shared record surface of
// every kind: unknown IDs 404 on GET, DELETE and /events naming the
// kind, a bogus ?status= is a 400, and ?status= filters each listing.
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

	kinds := []struct {
		path, noun, list string
		submit           func(slow bool) (string, error)
		cancel, wait     func(id string) error
	}{
		{
			path: "/v1/experiments", noun: "experiment", list: "experiments",
			submit: func(slow bool) (string, error) {
				cfg := fastCfg()
				if slow {
					cfg = slowCfg
				}
				r, err := c.Submit(ctx, cfg)
				return r.ID, err
			},
			cancel: func(id string) error { return c.Cancel(ctx, id) },
			wait:   func(id string) error { _, err := c.Wait(ctx, id, 0); return err },
		},
		{
			path: "/v1/sweeps", noun: "sweep", list: "sweeps",
			submit: func(slow bool) (string, error) {
				spec := fig5MiniSpec()
				if slow {
					spec = slowSweep
				}
				r, err := c.SubmitSweep(ctx, spec)
				return r.ID, err
			},
			cancel: func(id string) error { return c.CancelSweep(ctx, id) },
			wait:   func(id string) error { _, err := c.WaitSweep(ctx, id, 0); return err },
		},
		{
			path: "/v1/scenarios", noun: "scenario", list: "scenarios",
			submit: func(slow bool) (string, error) {
				spec := smallScenario()
				if slow {
					spec = slowScenario
				}
				r, err := c.SubmitScenario(ctx, spec)
				return r.ID, err
			},
			cancel: func(id string) error { return c.CancelScenario(ctx, id) },
			wait:   func(id string) error { _, err := c.WaitScenario(ctx, id, 0); return err },
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
		})
	}
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
// terminal experiments are evicted, and their pool jobs go with them, so
// the pool index (and the tracer and bus each job's closure pins) stays
// bounded with the registry.
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
		sub, err := c.Submit(ctx, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.Wait(ctx, sub.ID, 0); err != nil {
			t.Fatal(err)
		}
		ids = append(ids, sub.ID)
	}
	for _, id := range ids[:runs-capacity] {
		if _, ok := s.pool.Get(id); ok {
			t.Errorf("pruned %s is still in the pool", id)
		}
		if _, err := c.Get(ctx, id); err == nil {
			t.Errorf("pruned %s is still served", id)
		}
	}
	if n := len(s.pool.List()); n > capacity {
		t.Errorf("pool holds %d jobs after %d runs, want at most %d", n, runs, capacity)
	}
	metrics, err := c.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if got := metricValue(t, metrics, "rfidd_experiments"); got != capacity {
		t.Errorf("rfidd_experiments = %v, want %d", got, capacity)
	}
}
