package server

import (
	"context"
	"fmt"
	"net/http"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/obs/slo"
	"repro/internal/obs/tsdb"
)

// historyOptions runs the sampler fast enough for tests to see real
// samples within milliseconds.
func historyOptions() Options {
	return Options{
		Workers: 2, QueueDepth: 8, CacheSize: 16,
		HistoryInterval:  5 * time.Millisecond,
		HistoryRetention: 2 * time.Second,
	}
}

// waitFor polls cond until it holds or the deadline lapses.
func waitFor(t *testing.T, d time.Duration, cond func() bool, what string) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// waitForSamples waits until the history holds at least n samples of
// series. A counter step only registers in the history if the ring
// already holds the value before it, so a test waits for a sample
// before driving traffic it wants to see as a rate.
func waitForSamples(t *testing.T, c *Client, series string, n int) {
	t.Helper()
	waitFor(t, 10*time.Second, func() bool {
		idx, err := c.HistoryIndex(context.Background())
		if err != nil {
			return false
		}
		for _, info := range idx.Series {
			if info.Name == series {
				return info.Samples >= n
			}
		}
		return false
	}, fmt.Sprintf("%d history samples of %s", n, series))
}

func TestHistoryEndpointsServeSampledSeries(t *testing.T) {
	_, c := startServer(t, historyOptions())
	ctx := context.Background()

	// Generate traffic so the run/queue-wait series have observations.
	exp, err := c.Experiments().Submit(ctx, fastCfg())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Experiments().Wait(ctx, exp.ID, 5*time.Millisecond); err != nil {
		t.Fatal(err)
	}

	// The index should list core series once the sampler has ticked.
	waitFor(t, 5*time.Second, func() bool {
		idx, err := c.HistoryIndex(ctx)
		if err != nil {
			return false
		}
		names := make(map[string]bool, len(idx.Series))
		for _, s := range idx.Series {
			names[s.Name] = true
		}
		return names["rfidd_queue_depth"] &&
			names[`rfidd_run_seconds_count{origin="job"}`] &&
			names["runtime_goroutines"] &&
			names["obs_tsdb_ticks_total"]
	}, "history index to list sampled series")

	// A multi-series query with per-kind default reductions.
	res, err := c.MetricsHistory(ctx, []string{
		`rfidd_run_seconds{origin="job"}`,
		"rfidd_jobs_done_total",
		"rfidd_cache_hit_ratio",
	}, 0, "")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Results) != 3 {
		t.Fatalf("got %d results, want 3", len(res.Results))
	}
	if res.Results[0].Reduce != tsdb.ReduceAvg || res.Results[1].Reduce != tsdb.ReduceRate {
		t.Fatalf("default reduces = %s/%s, want avg/rate", res.Results[0].Reduce, res.Results[1].Reduce)
	}
	waitFor(t, 5*time.Second, func() bool {
		r, err := c.MetricsHistory(ctx, []string{"rfidd_cache_hit_ratio"}, 0, tsdb.ReduceRaw)
		return err == nil && len(r.Results) == 1 && len(r.Results[0].Points) > 0
	}, "cache hit ratio raw points")

	// Unknown series and bad reduce are 400s, not 500s.
	if _, err := c.MetricsHistory(ctx, []string{"no_such_series"}, 0, ""); err == nil ||
		!strings.Contains(err.Error(), "HTTP 400") {
		t.Fatalf("unknown series error = %v, want HTTP 400", err)
	}
	if _, err := c.MetricsHistory(ctx, []string{"rfidd_jobs_done_total"}, 0, "median"); err == nil ||
		!strings.Contains(err.Error(), "HTTP 400") {
		t.Fatalf("bad reduce error = %v, want HTTP 400", err)
	}
}

func TestAlertsEndpointServesObjectives(t *testing.T) {
	_, c := startServer(t, historyOptions())
	ctx := context.Background()
	resp, err := c.Alerts(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Alerts) != len(slo.DefaultConfig().Objectives) {
		t.Fatalf("got %d alerts, want the %d default objectives",
			len(resp.Alerts), len(slo.DefaultConfig().Objectives))
	}
	for _, a := range resp.Alerts {
		if a.State != slo.StateInactive {
			t.Fatalf("fresh server objective %s state = %s, want inactive", a.Objective, a.State)
		}
	}
	if resp.Firing != 0 {
		t.Fatalf("fresh server firing = %d, want 0", resp.Firing)
	}
}

// TestNegativeSizesKeepStreamsAndHistoryOn pins that event streams and
// the metrics history have no off switch: negative sizes take the
// defaults, and every history, alert and record event route answers.
func TestNegativeSizesKeepStreamsAndHistoryOn(t *testing.T) {
	_, c := startServer(t, Options{
		Workers: 2, QueueDepth: 4, CacheSize: 16,
		EventHistory: -1, HistoryInterval: -1,
	})
	ctx := context.Background()
	sw, err := c.Sweeps().Submit(ctx, fig5MiniSpec())
	if err != nil {
		t.Fatal(err)
	}
	scn, err := c.Scenarios().Submit(ctx, smallScenario())
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{
		"/v1/metrics/history",
		"/v1/alerts",
		"/v1/alerts/events",
		"/v1/sweeps/" + sw.ID + "/events",
		"/v1/scenarios/" + scn.ID + "/events",
	} {
		if code := statusOf(t, c.BaseURL+path); code != http.StatusOK {
			t.Errorf("GET %s = %d, want 200", path, code)
		}
	}
}

// TestRejectedSLOPolicyKeepsHistory pins the one alerting "off": a
// policy that fails validation leaves the engine nil, so /v1/alerts
// answers 404, while history and the alert stream keep answering.
func TestRejectedSLOPolicyKeepsHistory(t *testing.T) {
	_, c := startServer(t, Options{Workers: 1, SLOConfig: &slo.Config{}})
	ctx := context.Background()
	if _, err := c.Alerts(ctx); err == nil || !strings.Contains(err.Error(), "HTTP 404") {
		t.Fatalf("alerts under a rejected policy: err = %v, want HTTP 404", err)
	}
	for _, path := range []string{"/v1/metrics/history", "/v1/alerts/events"} {
		if code := statusOf(t, c.BaseURL+path); code != http.StatusOK {
			t.Errorf("GET %s = %d, want 200", path, code)
		}
	}
	if body, err := c.Statusz(ctx); err != nil || !strings.Contains(body, "slo alerting disabled") {
		t.Errorf("statusz under a rejected policy lacks the notice (err %v)", err)
	}
}

// statusOf returns the status of a GET without reading the body, so an
// endless event stream answers too.
func statusOf(t *testing.T, url string) int {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	return resp.StatusCode
}

func TestStatuszShowsTrendsAndAlerts(t *testing.T) {
	_, c := startServer(t, historyOptions())
	ctx := context.Background()
	exp, err := c.Experiments().Submit(ctx, fastCfg())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Experiments().Wait(ctx, exp.ID, 5*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 5*time.Second, func() bool {
		body, err := c.Statusz(ctx)
		if err != nil {
			return false
		}
		return strings.Contains(body, "queue depth") &&
			strings.Contains(body, "slo alerts") &&
			strings.Contains(body, "run-latency-job") &&
			strings.Contains(body, "▁") // at least one sparkline rendered
	}, "statusz trends and alert table")
}

func TestSweepAnnotatesHistoryTimeline(t *testing.T) {
	s, c := startServer(t, historyOptions())
	ctx := context.Background()
	waitForSamples(t, c, "obs_tsdb_ticks_total", 1)
	sw, err := c.Sweeps().Submit(ctx, fig5MiniSpec())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Sweeps().Wait(ctx, sw.ID, 5*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	// The sweep's cells show as real rates on the sweep-origin series.
	rateSeries := []string{
		`rfidd_queue_wait_seconds_count{origin="sweep"}`,
		`rfidd_run_seconds_count{origin="sweep"}`,
	}
	waitFor(t, 5*time.Second, func() bool {
		resp, err := c.MetricsHistory(ctx, rateSeries, 0, tsdb.ReduceRate)
		if err != nil || len(resp.Results) != len(rateSeries) {
			return false
		}
		for _, res := range resp.Results {
			if !slices.ContainsFunc(res.Points, func(p tsdb.Point) bool { return p.V > 0 }) {
				return false
			}
		}
		return true
	}, "positive sweep-origin rate points")
	waitFor(t, 5*time.Second, func() bool {
		var started, finished bool
		for _, a := range s.hist.Annotations(time.Time{}) {
			if a.Kind == "sweep" && strings.Contains(a.Text, sw.ID) {
				if strings.Contains(a.Text, "started") {
					started = true
				} else {
					finished = true
				}
			}
		}
		return started && finished
	}, "sweep start/finish annotations")
}

func TestSyntheticAlertFiresAndClears(t *testing.T) {
	// Two breach-by-construction objectives with tiny windows, so each
	// cycle completes in test time. The latency one counts every job run
	// as bad (threshold below the first bucket); one job's counter step
	// is hot in every window at once, so it fires without passing
	// pending. The gauge one is breached by the test itself and walks
	// the slow pair: pending once half the short window is over the
	// threshold, firing once half the long window confirms it. The fast
	// pair's unreachable burn keeps it out of that walk.
	cfg := slo.Config{
		Windows: slo.Windows{
			Fast: slo.Duration(50 * time.Millisecond), FastLong: slo.Duration(150 * time.Millisecond), FastBurn: 1e9,
			Slow: slo.Duration(100 * time.Millisecond), SlowLong: slo.Duration(300 * time.Millisecond), SlowBurn: 5,
		},
		Objectives: []slo.Objective{{
			Name: "synthetic-run-latency", Kind: slo.KindLatency,
			Series: `rfidd_run_seconds{origin="job"}`, Threshold: 0.0000001, Target: 0.99,
		}, {
			Name: "synthetic-breach", Kind: slo.KindGauge,
			Series: "synthetic_breach", Threshold: 0.5, Target: 0.9,
		}},
	}
	o := historyOptions()
	o.SLOConfig = &cfg
	s, c := startServer(t, o)
	ctx := context.Background()
	breach := s.Registry().Gauge("synthetic_breach", "Set to 1 by the test to breach the synthetic gauge objective.")

	// A full long window of quiet samples (300 ms at 5 ms ticks) first:
	// the job's counter step then has its pre-step value in the ring,
	// and the gauge breach cannot confirm before the short window saw it.
	waitForSamples(t, c, "synthetic_breach", 60)
	state := func(i int) (string, int) {
		resp, err := c.Alerts(ctx)
		if err != nil || len(resp.Alerts) != len(cfg.Objectives) {
			t.Fatalf("alerts: %+v, %v", resp, err)
		}
		return resp.Alerts[i].State, resp.Firing
	}
	runJob := func() {
		exp, err := c.Experiments().Submit(ctx, fastCfg())
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.Experiments().Wait(ctx, exp.ID, 5*time.Millisecond); err != nil {
			t.Fatal(err)
		}
	}
	for i, cycle := range []struct{ start, stop func() }{
		{runJob, func() {}}, // traffic stops with the one job
		{func() { breach.Set(1) }, func() { breach.Set(0) }},
	} {
		name := cfg.Objectives[i].Name
		if st, firing := state(i); st != slo.StateInactive || firing != 0 {
			t.Fatalf("%s before its breach: %s with %d firing, want inactive and 0", name, st, firing)
		}
		cycle.start()
		waitFor(t, 10*time.Second, func() bool {
			st, firing := state(i)
			return st == slo.StateFiring && firing == 1
		}, name+" to fire")

		// Firing is visible on statusz.
		body, err := c.Statusz(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(body, name) || !strings.Contains(body, "firing") {
			t.Fatalf("statusz does not show %s firing", name)
		}

		// The breach ages out of the short window and resolves.
		cycle.stop()
		waitFor(t, 10*time.Second, func() bool {
			st, firing := state(i)
			return firing == 0 && (st == slo.StateResolved || st == slo.StateInactive)
		}, name+" to clear")
	}

	// The alert stream replays the whole transition log, in order;
	// polling above may have skipped a state, the stream cannot.
	want := map[string][]string{
		"synthetic-run-latency": {slo.StateFiring, slo.StateResolved},
		"synthetic-breach":      {slo.StatePending, slo.StateFiring, slo.StateResolved},
	}
	got := map[string][]string{}
	walked := func() bool {
		for name, w := range want {
			if !hasSubsequence(got[name], w) {
				return false
			}
		}
		return true
	}
	wctx, cancel := context.WithTimeout(ctx, 10*time.Second)
	defer cancel()
	err := c.WatchAlerts(wctx, func(ev WatchEvent) error {
		name, _ := ev.Data["objective"].(string)
		if to, _ := ev.Data["to"].(string); ev.Type == "alert" && to != "" {
			got[name] = append(got[name], to)
		}
		if walked() {
			return ErrStopWatch
		}
		return nil
	})
	if err != nil && wctx.Err() == nil {
		t.Fatalf("alert stream: %v", err)
	}
	if !walked() {
		t.Fatalf("alert transitions = %v, want the subsequences %v", got, want)
	}
	lintLiveMetrics(t, c, "runtime_goroutines", "obs_tsdb_ticks_total", "slo_burn_rate")
}

// hasSubsequence reports whether want appears in got, in order.
func hasSubsequence(got, want []string) bool {
	i := 0
	for _, s := range got {
		if i < len(want) && s == want[i] {
			i++
		}
	}
	return i == len(want)
}
