package server

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/sim"
	"repro/internal/sweep"
)

// holdWorker occupies the pool's only worker until the returned func is
// called (or the test ends), so later submissions stay queued.
func holdWorker(t *testing.T, s *Server) (release func()) {
	t.Helper()
	ch := make(chan struct{})
	if _, err := s.pool.Submit(context.Background(), "hold", func(context.Context) (any, error) {
		<-ch
		return nil, nil
	}, nil); err != nil {
		t.Fatal(err)
	}
	release = sync.OnceFunc(func() { close(ch) })
	t.Cleanup(release) // before the server's drain, which would wait on it
	return release
}

// waitQueued polls until job id leads the live flight computing cfg.
func waitQueued(t *testing.T, s *Server, cfg sim.Config, id string) {
	t.Helper()
	p, err := prepareExperiment(SubmitRequest{Config: cfg})
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		if s.runner.Leader(p.key) == id {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s never reached the pool", id)
		}
		time.Sleep(time.Millisecond)
	}
}

// post sends body to path and returns the status and decoded response.
func post(t *testing.T, c *Client, path string, body any, out any) int {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(c.BaseURL+path, "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatal(err)
		}
	}
	return resp.StatusCode
}

// TestExperimentJoinsQueuedSweepCell: an experiment whose configuration
// a queued sweep cell already computes joins the cell's flight. One
// computation runs, and the cell and the experiment carry its bytes.
// The experiment gets a new record (200, not 202) that follows the
// flight, has no event stream and cannot be cancelled.
func TestExperimentJoinsQueuedSweepCell(t *testing.T) {
	s, c := startServer(t, Options{Workers: 1, QueueDepth: 8, CacheSize: 16})
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()

	release := holdWorker(t, s)
	sw, err := c.Sweeps().Submit(ctx, sweep.Spec{Base: fastCfg()}) // one cell: fastCfg()
	if err != nil {
		t.Fatal(err)
	}
	waitQueued(t, s, fastCfg(), sw.ID+"/c0")

	var exp ExperimentResponse
	if code := post(t, c, "/v1/experiments", SubmitRequest{Config: fastCfg()}, &exp); code != http.StatusOK {
		t.Fatalf("joining experiment got HTTP %d, want 200", code)
	}
	if exp.Cached || exp.Status != "queued" {
		t.Errorf("joining experiment %s: cached=%v status=%s, want the queued flight", exp.ID, exp.Cached, exp.Status)
	}
	if code, body := call(t, http.MethodGet, c.BaseURL+"/v1/experiments/"+exp.ID+"/events"); code != http.StatusNotFound {
		t.Errorf("joined record's events: %d %s, want 404", code, body)
	}
	if code, body := call(t, http.MethodDelete, c.BaseURL+"/v1/experiments/"+exp.ID); code != http.StatusConflict {
		t.Errorf("DELETE on a joined record: %d %s, want 409", code, body)
	}
	release()

	done, err := c.Experiments().Wait(ctx, exp.ID, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Sweeps().Wait(ctx, sw.ID, 0); err != nil {
		t.Fatal(err)
	}
	cells, err := c.SweepCells(ctx, sw.ID, "", true)
	if err != nil {
		t.Fatal(err)
	}
	if done.Status != "done" || len(cells) != 1 || !bytes.Equal(cells[0].Result, done.Result) {
		t.Fatalf("experiment %s and cell carry different bytes:\n%s\n%+v", done.Status, done.Result, cells)
	}
	text, err := c.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if got := metricValue(t, text, "rfidd_jobs_done_total"); got != 2 {
		t.Errorf("rfidd_jobs_done_total = %v, want 2: the hold job and one computation", got)
	}
}

// TestIdenticalSweepsComputeOnce: two identical sweeps submitted while
// the worker is held compute each cell once between them. Every other
// cell joined the computation (coalesced, with no coalesced_onto) or,
// when it was looked up only after that landed, hit the cache; both
// sweeps carry the same bytes.
func TestIdenticalSweepsComputeOnce(t *testing.T) {
	s, c := startServer(t, Options{Workers: 1, QueueDepth: 16, CacheSize: 16})
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()

	release := holdWorker(t, s)
	a, err := c.Sweeps().Submit(ctx, fig5MiniSpec())
	if err != nil {
		t.Fatal(err)
	}
	b, err := c.Sweeps().Submit(ctx, fig5MiniSpec())
	if err != nil {
		t.Fatal(err)
	}
	release()

	var results [2][]SweepCellResponse
	shared := 0 // cells served by the other sweep's computation
	for k, id := range []string{a.ID, b.ID} {
		final, err := c.Sweeps().Wait(ctx, id, 0)
		if err != nil {
			t.Fatal(err)
		}
		if final.Status != "done" {
			t.Fatalf("sweep %s ended %s: %+v", id, final.Status, final.Counts)
		}
		shared += final.Counts.Coalesced + final.Counts.Cached
		if results[k], err = c.SweepCells(ctx, id, "", true); err != nil {
			t.Fatal(err)
		}
		for _, cell := range results[k] {
			if cell.CoalescedOnto != nil {
				t.Errorf("%s cell %d coalesced onto %d, want unset", id, cell.Index, *cell.CoalescedOnto)
			}
		}
	}
	for i := range results[0] {
		if !bytes.Equal(results[0][i].Result, results[1][i].Result) {
			t.Errorf("cell %d differs between the two sweeps", i)
		}
	}
	text, err := c.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if got := metricValue(t, text, "rfidd_sweep_cells_run_total"); got != 4 {
		t.Errorf("rfidd_sweep_cells_run_total = %v, want 4 (one sweep's cells)", got)
	}
	if shared != 4 {
		t.Errorf("coalesced plus cached cells across both sweeps = %d, want 4", shared)
	}
}

// TestSweepResubmittedAfterCancelComputes: a sweep cancelled while its
// cell is still queued releases the cell's key at once, so the same
// spec resubmitted before the cancelled job reaches a worker computes
// the cell afresh instead of joining the dead computation.
func TestSweepResubmittedAfterCancelComputes(t *testing.T) {
	s, c := startServer(t, Options{Workers: 1, QueueDepth: 8, CacheSize: 16})
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()

	release := holdWorker(t, s)
	spec := sweep.Spec{Base: fastCfg()} // one cell: fastCfg()
	first, err := c.Sweeps().Submit(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	waitQueued(t, s, fastCfg(), first.ID+"/c0")
	if err := c.Sweeps().Cancel(ctx, first.ID); err != nil {
		t.Fatal(err)
	}
	second, err := c.Sweeps().Submit(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	waitQueued(t, s, fastCfg(), second.ID+"/c0")
	release()

	for id, want := range map[string]string{first.ID: "canceled", second.ID: "done"} {
		final, err := c.Sweeps().Wait(ctx, id, 0)
		if err != nil {
			t.Fatal(err)
		}
		if final.Status != want {
			t.Errorf("sweep %s ended %s (%+v), want %s", id, final.Status, final.Counts, want)
		}
	}
	cells, err := c.SweepCells(ctx, second.ID, "", true)
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 1 || cells[0].Status != "done" || len(cells[0].Result) == 0 {
		t.Fatalf("resubmitted sweep's cells: %+v, want one done cell", cells)
	}
	text, err := c.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if got := metricValue(t, text, "rfidd_sweep_cells_run_total"); got != 1 {
		t.Errorf("rfidd_sweep_cells_run_total = %v, want 1", got)
	}
}

// TestSweepCancelSparesJoinedExperiment: cancelling a sweep whose cell
// leads a computation an experiment joined cancels the cell, not the
// computation. The experiment ends done with the bytes, and the sweep
// ends canceled.
func TestSweepCancelSparesJoinedExperiment(t *testing.T) {
	s, c := startServer(t, Options{Workers: 1, QueueDepth: 8, CacheSize: 16})
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()

	release := holdWorker(t, s)
	sw, err := c.Sweeps().Submit(ctx, sweep.Spec{Base: fastCfg()})
	if err != nil {
		t.Fatal(err)
	}
	waitQueued(t, s, fastCfg(), sw.ID+"/c0")
	var exp ExperimentResponse
	if code := post(t, c, "/v1/experiments", SubmitRequest{Config: fastCfg()}, &exp); code != http.StatusOK {
		t.Fatalf("joining experiment got HTTP %d, want 200", code)
	}
	if err := c.Sweeps().Cancel(ctx, sw.ID); err != nil {
		t.Fatal(err)
	}
	final, err := c.Sweeps().Wait(ctx, sw.ID, 0)
	if err != nil {
		t.Fatal(err)
	}
	if final.Status != "canceled" {
		t.Errorf("cancelled sweep ended %s, want canceled", final.Status)
	}
	release()

	done, err := c.Experiments().Wait(ctx, exp.ID, 0)
	if err != nil {
		t.Fatal(err)
	}
	if done.Status != "done" || len(done.Result) == 0 {
		t.Fatalf("joined experiment ended %s (%s), want done with the bytes", done.Status, done.Error)
	}
	text, err := c.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if got := metricValue(t, text, "rfidd_jobs_done_total"); got != 2 {
		t.Errorf("rfidd_jobs_done_total = %v, want 2: the hold job and one computation", got)
	}
}

// TestExperimentCancelSparesJoinedSweep: DELETE on an experiment whose
// computation a sweep cell shares cancels the experiment, not the
// cell. Whether the cell joined before the DELETE (the flight runs on
// for it) or after (the key was released, and the cell leads afresh),
// the sweep ends done after one computation.
func TestExperimentCancelSparesJoinedSweep(t *testing.T) {
	s, c := startServer(t, Options{Workers: 1, QueueDepth: 8, CacheSize: 16})
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()

	release := holdWorker(t, s)
	var exp ExperimentResponse
	if code := post(t, c, "/v1/experiments", SubmitRequest{Config: fastCfg()}, &exp); code != http.StatusAccepted {
		t.Fatalf("leading experiment got HTTP %d, want 202", code)
	}
	sw, err := c.Sweeps().Submit(ctx, sweep.Spec{Base: fastCfg()})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Experiments().Cancel(ctx, exp.ID); err != nil {
		t.Fatal(err)
	}
	release()

	final, err := c.Sweeps().Wait(ctx, sw.ID, 0)
	if err != nil {
		t.Fatal(err)
	}
	if final.Status != "done" || final.Counts.Done != 1 {
		t.Errorf("sweep sharing the cancelled experiment's computation ended %s (%+v), want done", final.Status, final.Counts)
	}
	if got, err := c.Experiments().Wait(ctx, exp.ID, 0); err != nil || got.Status != "canceled" {
		t.Errorf("cancelled experiment ended %s (%v), want canceled", got.Status, err)
	}
	text, err := c.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if got := metricValue(t, text, "rfidd_jobs_done_total"); got != 2 {
		t.Errorf("rfidd_jobs_done_total = %v, want 2: the hold job and one computation", got)
	}
}

// TestOversizeBodyIs413 sends a body over the 1 MiB bound to each POST
// route.
func TestOversizeBodyIs413(t *testing.T) {
	_, c := startServer(t, Options{Workers: 1})
	big := `{"x":"` + strings.Repeat("a", maxBodyBytes+1) + `"}`
	for _, path := range []string{"/v1/experiments", "/v1/sweeps", "/v1/scenarios"} {
		resp, err := http.Post(c.BaseURL+path, "application/json", strings.NewReader(big))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusRequestEntityTooLarge {
			t.Errorf("POST %s with a %d-byte body: HTTP %d, want 413", path, len(big), resp.StatusCode)
		}
	}
}
