package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/sim"
)

func fastCfg() sim.Config {
	return sim.Config{
		Tags: 60, Seed: 42, Rounds: 3,
		Algorithm: sim.AlgFSA, FrameSize: 40,
		Detector: sim.DetQCD, Strength: 8,
	}
}

// startServer returns a running service on a loopback listener plus its
// client; the server drains on test cleanup.
func startServer(t *testing.T, o Options) (*Server, *Client) {
	t.Helper()
	s := New(o)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = s.Shutdown(ctx)
	})
	return s, NewClient(ts.URL)
}

// metricValue extracts an un-labelled metric value from an exposition.
func metricValue(t *testing.T, text, name string) float64 {
	t.Helper()
	re := regexp.MustCompile(`(?m)^` + regexp.QuoteMeta(name) + ` ([0-9.eE+-]+)$`)
	m := re.FindStringSubmatch(text)
	if m == nil {
		t.Fatalf("metric %s not found in exposition:\n%s", name, text)
	}
	v, err := strconv.ParseFloat(m[1], 64)
	if err != nil {
		t.Fatalf("metric %s: %v", name, err)
	}
	return v
}

// lintLiveMetrics fetches the live /metrics exposition, requires the
// Prometheus 0.0.4 text content type and every want line, and passes
// the whole text through the Prometheus text-format linter.
func lintLiveMetrics(t *testing.T, c *Client, wants ...string) {
	t.Helper()
	resp, err := http.Get(c.BaseURL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/plain; version=0.0.4; charset=utf-8" {
		t.Errorf("/metrics Content-Type = %q", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	text := string(body)
	for _, want := range wants {
		if !strings.Contains(text, want) {
			t.Errorf("/metrics lacks %q", want)
		}
	}
	for _, err := range obs.LintPrometheus(text) {
		t.Errorf("/metrics lint: %v", err)
	}
}

func TestEndToEndCachedResubmissionIsByteIdentical(t *testing.T) {
	_, c := startServer(t, Options{Workers: 2, QueueDepth: 8, CacheSize: 16})
	ctx := context.Background()

	if err := c.Health(ctx); err != nil {
		t.Fatalf("healthz: %v", err)
	}

	first, err := c.Experiments().Submit(ctx, fastCfg())
	if err != nil {
		t.Fatal(err)
	}
	if first.Cached {
		t.Fatal("first submission reported cached")
	}
	done, err := c.Experiments().Wait(ctx, first.ID, 0)
	if err != nil {
		t.Fatal(err)
	}
	if done.Status != "done" || len(done.Result) == 0 {
		t.Fatalf("first run: status=%s err=%q", done.Status, done.Error)
	}

	second, err := c.Experiments().Submit(ctx, fastCfg())
	if err != nil {
		t.Fatal(err)
	}
	if !second.Cached {
		t.Fatal("identical resubmission was not served from cache")
	}
	if second.ID == first.ID {
		t.Error("cached submission reused the original experiment id")
	}
	if second.Status != "done" {
		t.Errorf("cached status = %s", second.Status)
	}
	if !bytes.Equal(done.Result, second.Result) {
		t.Errorf("aggregates differ:\n%s\n%s", done.Result, second.Result)
	}

	// A config differing only in defaulted/scheduling fields also hits.
	alt := fastCfg()
	alt.IDBits = 64
	alt.Workers = 3
	third, err := c.Experiments().Submit(ctx, alt)
	if err != nil {
		t.Fatal(err)
	}
	if !third.Cached || !bytes.Equal(done.Result, third.Result) {
		t.Error("canonically-equal config missed the cache")
	}

	metrics, err := c.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if hits := metricValue(t, metrics, "rfidd_cache_hits_total"); hits < 2 {
		t.Errorf("rfidd_cache_hits_total = %v, want >= 2", hits)
	}
	if done := metricValue(t, metrics, "rfidd_jobs_done_total"); done != 1 {
		t.Errorf("rfidd_jobs_done_total = %v, want exactly 1 computation", done)
	}
}

func TestConcurrentDuplicateSubmissions(t *testing.T) {
	_, c := startServer(t, Options{Workers: 2, QueueDepth: 32, CacheSize: 16})
	ctx := context.Background()

	const n = 8
	var wg sync.WaitGroup
	bodies := make([][]byte, n)
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := c.Experiments().Submit(ctx, fastCfg())
			if err != nil {
				errs[i] = err
				return
			}
			final, err := c.Experiments().Wait(ctx, resp.ID, 0)
			if err != nil {
				errs[i] = err
				return
			}
			if final.Status != "done" {
				errs[i] = fmt.Errorf("status %s: %s", final.Status, final.Error)
				return
			}
			bodies[i] = final.Result
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("submitter %d: %v", i, err)
		}
	}
	for i := 1; i < n; i++ {
		if !bytes.Equal(bodies[0], bodies[i]) {
			t.Fatalf("submitter %d saw a different aggregate", i)
		}
	}

	// Coalescing + caching must have collapsed the duplicates: the pool
	// ran the experiment at most a couple of times, not n times.
	metrics, err := c.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if done := metricValue(t, metrics, "rfidd_jobs_done_total"); done > 2 {
		t.Errorf("rfidd_jobs_done_total = %v for %d duplicate submissions", done, n)
	}
}

// TestDuplicateAfterJobFinishesIsServedFromCache forces the coalescing
// gap behind the bound above: a duplicate whose cache lookup misses
// while the first job is queued, and which reaches the in-flight check
// only after that job has finished and released its key, must be
// served the cached bytes instead of running the experiment again.
func TestDuplicateAfterJobFinishesIsServedFromCache(t *testing.T) {
	s, c := startServer(t, Options{Workers: 1, QueueDepth: 8, CacheSize: 16})
	ctx := context.Background()

	// Hold the only worker so the first submission stays queued.
	release := make(chan struct{})
	if _, err := s.pool.Submit(context.Background(), "hold", func(context.Context) (any, error) {
		<-release
		return nil, nil
	}, nil); err != nil {
		t.Fatal(err)
	}
	first, err := c.Experiments().Submit(ctx, fastCfg())
	if err != nil {
		t.Fatal(err)
	}
	// The worker runs jobs in order and returns from onJobDone before it
	// takes the next one, so this job starting means the first
	// submission is finished, cached and out of the in-flight map.
	firstSettled := make(chan struct{})
	if _, err := s.pool.Submit(context.Background(), "after-first", func(context.Context) (any, error) {
		close(firstSettled)
		return nil, nil
	}, nil); err != nil {
		t.Fatal(err)
	}

	missed := make(chan struct{})
	s.testHookAfterLookup = func() {
		close(missed)
		<-firstSettled
	}
	body, err := json.Marshal(SubmitRequest{Config: fastCfg()})
	if err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	served := make(chan struct{})
	go func() {
		defer close(served)
		s.Handler().ServeHTTP(rec, httptest.NewRequest("POST", "/v1/experiments", bytes.NewReader(body)))
	}()
	<-missed // the duplicate's lookup missed: the first job is still queued
	close(release)
	<-served

	var dup ExperimentResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &dup); err != nil {
		t.Fatalf("duplicate response %d: %v", rec.Code, err)
	}
	if rec.Code != 200 || !dup.Cached {
		t.Fatalf("duplicate got HTTP %d, cached=%v (id %s): it ran the experiment again", rec.Code, dup.Cached, dup.ID)
	}
	done, err := c.Experiments().Wait(ctx, first.ID, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(done.Result, dup.Result) {
		t.Error("duplicate served different bytes from the first run's result")
	}
}

func TestSubmitValidationAndNotFound(t *testing.T) {
	_, c := startServer(t, Options{Workers: 1, QueueDepth: 4})
	ctx := context.Background()

	bad := sim.Config{Tags: 0, Algorithm: sim.AlgFSA, FrameSize: 10, Detector: sim.DetQCD}
	if _, err := c.Experiments().Submit(ctx, bad); err == nil {
		t.Error("invalid config accepted")
	} else if ae, ok := err.(*apiError); !ok || ae.StatusCode != 400 {
		t.Errorf("invalid config: err = %v, want HTTP 400", err)
	}

	if _, err := c.Experiments().Get(ctx, "exp-999"); err == nil {
		t.Error("unknown id succeeded")
	} else if ae, ok := err.(*apiError); !ok || ae.StatusCode != 404 {
		t.Errorf("unknown id: err = %v, want HTTP 404", err)
	}

	if err := c.Experiments().Cancel(ctx, "exp-999"); err == nil {
		t.Error("cancel of unknown id succeeded")
	}
}

// TestSubmitImpairedTreeIs400 pins that a BER or capture channel on a
// tree algorithm, which runs on the ideal channel only, is refused at
// submission instead of being run (and cached) as the ideal experiment.
func TestSubmitImpairedTreeIs400(t *testing.T) {
	_, c := startServer(t, Options{Workers: 1, QueueDepth: 4})
	ctx := context.Background()
	for _, alg := range []string{sim.AlgBT, sim.AlgQT} {
		cfg := sim.Config{Tags: 200, Seed: 3, Algorithm: alg, Detector: sim.DetQCD, BER: 0.05, CaptureProb: 0.3}
		if _, err := c.Experiments().Submit(ctx, cfg); err == nil {
			t.Errorf("%s: impaired config accepted", alg)
		} else if ae, ok := err.(*apiError); !ok || ae.StatusCode != 400 {
			t.Errorf("%s: err = %v, want HTTP 400", alg, err)
		}
	}
}

// TestSubmitHostileIDBitsIs400 pins that a tag ID length no population
// can be drawn with is refused at submission, on every route that takes
// one. Before Validate bounded it, the first body below passed and
// panicked on a fan-out goroutine, which took the whole process down.
func TestSubmitHostileIDBitsIs400(t *testing.T) {
	_, c := startServer(t, Options{Workers: 2, QueueDepth: 4})
	const run = `"Rounds":8,"Workers":2,"Algorithm":"fsa","FrameSize":16,"Detector":"qcd","Strength":8`
	for _, tc := range []struct{ path, body string }{
		{"/v1/experiments", `{"config":{"Tags":20,` + run + `,"IDBits":-5}}`},
		{"/v1/experiments", `{"config":{"Tags":20,` + run + `,"IDBits":1}}`},
		{"/v1/experiments", `{"config":{"Tags":20,` + run + `,"IDBits":497}}`},
		{"/v1/sweeps", `{"spec":{"base":{"Tags":20,` + run + `,"IDBits":-5},"axes":[{"field":"strength","ints":[4,8]}]}}`},
		{"/v1/scenarios", `{"spec":{"arrivals_per_second":4000,"dwell_micros":150000,"duration_micros":400000,"id_bits":-5}}`},
	} {
		if code, _, body := postRaw(t, c.BaseURL+tc.path, []byte(tc.body)); code != http.StatusBadRequest ||
			!strings.Contains(strings.ToLower(string(body)), "bit") {
			t.Errorf("POST %s %s: %d %s, want 400 naming the ID length", tc.path, tc.body, code, body)
		}
	}
}

func TestListReportsSubmissionsWithoutResults(t *testing.T) {
	_, c := startServer(t, Options{Workers: 2, QueueDepth: 8})
	ctx := context.Background()

	cfgA := fastCfg()
	cfgB := fastCfg()
	cfgB.Seed = 43
	ra, _ := c.Experiments().Submit(ctx, cfgA)
	rb, _ := c.Experiments().Submit(ctx, cfgB)
	if _, err := c.Experiments().Wait(ctx, ra.ID, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Experiments().Wait(ctx, rb.ID, 0); err != nil {
		t.Fatal(err)
	}

	list, err := c.Experiments().List(ctx, "")
	if err != nil {
		t.Fatal(err)
	}
	if len(list) != 2 {
		t.Fatalf("list has %d entries, want 2", len(list))
	}
	if list[0].ID != ra.ID || list[1].ID != rb.ID {
		t.Errorf("list order = %s,%s want %s,%s", list[0].ID, list[1].ID, ra.ID, rb.ID)
	}
	for _, e := range list {
		if len(e.Result) != 0 {
			t.Errorf("listing for %s carries a result body", e.ID)
		}
	}
}

func TestCancelRunningExperiment(t *testing.T) {
	_, c := startServer(t, Options{Workers: 1, QueueDepth: 4})
	ctx := context.Background()

	slow := sim.Config{
		Tags: 3000, Seed: 1, Rounds: 2000,
		Algorithm: sim.AlgFSA, FrameSize: 1500,
		Detector: sim.DetQCD, Strength: 8, Workers: 1,
	}
	resp, err := c.Experiments().Submit(ctx, slow)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Experiments().Cancel(ctx, resp.ID); err != nil {
		t.Fatalf("cancel: %v", err)
	}
	final, err := c.Experiments().Wait(ctx, resp.ID, 0)
	if err != nil {
		t.Fatal(err)
	}
	if final.Status != "canceled" {
		t.Errorf("status = %s, want canceled", final.Status)
	}
}

func TestQueueFullShedsLoad(t *testing.T) {
	_, c := startServer(t, Options{Workers: 1, QueueDepth: 1})
	ctx := context.Background()

	slow := func(seed uint64) sim.Config {
		return sim.Config{
			Tags: 2000, Seed: seed, Rounds: 500,
			Algorithm: sim.AlgFSA, FrameSize: 1000,
			Detector: sim.DetQCD, Strength: 8, Workers: 1,
		}
	}
	var ids []string
	sawFull := false
	for seed := uint64(1); seed <= 8; seed++ {
		resp, err := c.Experiments().Submit(ctx, slow(seed))
		if err != nil {
			if ae, ok := err.(*apiError); ok && ae.StatusCode == 503 {
				sawFull = true
				break
			}
			t.Fatalf("seed %d: %v", seed, err)
		}
		ids = append(ids, resp.ID)
	}
	if !sawFull {
		t.Fatal("never saw HTTP 503 despite a depth-1 queue")
	}
	for _, id := range ids {
		_ = c.Experiments().Cancel(ctx, id)
	}
}

func TestGracefulShutdownDrainsInFlight(t *testing.T) {
	s := New(Options{Workers: 2, QueueDepth: 16})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	c := NewClient(ts.URL)
	ctx := context.Background()

	var ids []string
	for seed := uint64(1); seed <= 6; seed++ {
		cfg := fastCfg()
		cfg.Seed = seed
		resp, err := c.Experiments().Submit(ctx, cfg)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, resp.ID)
	}

	shCtx, cancel := context.WithTimeout(ctx, 30*time.Second)
	defer cancel()
	if err := s.Shutdown(shCtx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	// Every submission, queued or in-flight at shutdown, must have run
	// to completion — that is the drain guarantee.
	for _, id := range ids {
		final, err := c.Experiments().Get(ctx, id)
		if err != nil {
			t.Fatal(err)
		}
		if final.Status != "done" {
			t.Errorf("%s: status = %s after graceful shutdown, want done", id, final.Status)
		}
	}
	// New work is refused once draining has begun.
	cfg := fastCfg()
	cfg.Seed = 99
	if _, err := c.Experiments().Submit(ctx, cfg); err == nil {
		t.Error("submission accepted after shutdown")
	} else if ae, ok := err.(*apiError); !ok || ae.StatusCode != 503 {
		t.Errorf("post-shutdown submit: err = %v, want HTTP 503", err)
	}
}

func TestMetricsExposition(t *testing.T) {
	_, c := startServer(t, Options{Workers: 2, QueueDepth: 8})
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
	if got := metricValue(t, text, "rfidd_workers"); got != 2 {
		t.Errorf("rfidd_workers = %v", got)
	}
	if got := metricValue(t, text, "rfidd_jobs_submitted_total"); got != 1 {
		t.Errorf("rfidd_jobs_submitted_total = %v", got)
	}
	if got := metricValue(t, text, "rfidd_cache_misses_total"); got != 1 {
		t.Errorf("rfidd_cache_misses_total = %v", got)
	}
	if got := metricValue(t, text, "rfidd_experiments"); got != 1 {
		t.Errorf("rfidd_experiments = %v", got)
	}
	// The latency histogram must have recorded exactly one observation
	// with a parseable cumulative bucket series.
	if got := metricValue(t, text, "rfidd_job_latency_seconds_count"); got != 1 {
		t.Errorf("latency count = %v", got)
	}
	re := regexp.MustCompile(`(?m)^rfidd_job_latency_seconds_bucket\{le="\+Inf"\} (\d+)$`)
	m := re.FindStringSubmatch(text)
	if m == nil || m[1] != "1" {
		t.Errorf("+Inf bucket missing or wrong: %v", m)
	}
}

func TestResultDecodesAsAggregateSummary(t *testing.T) {
	_, c := startServer(t, Options{Workers: 2, QueueDepth: 8})
	ctx := context.Background()

	resp, err := c.Experiments().Submit(ctx, fastCfg())
	if err != nil {
		t.Fatal(err)
	}
	final, err := c.Experiments().Wait(ctx, resp.ID, 0)
	if err != nil {
		t.Fatal(err)
	}
	var decoded struct {
		Config  sim.Config                    `json:"config"`
		Metrics map[string]map[string]float64 `json:"metrics"`
	}
	if err := json.Unmarshal(final.Result, &decoded); err != nil {
		t.Fatalf("result does not decode: %v", err)
	}
	if decoded.Config.Tags != 60 {
		t.Errorf("result config tags = %d", decoded.Config.Tags)
	}
	if decoded.Metrics["single"]["mean"] != 60 {
		t.Errorf("single mean = %v, want 60", decoded.Metrics["single"]["mean"])
	}
}
