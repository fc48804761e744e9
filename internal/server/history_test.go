package server

import (
	"context"
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

func TestHistoryDisabledPaths(t *testing.T) {
	_, c := startServer(t, Options{
		Workers: 1, QueueDepth: 4, CacheSize: 16,
		HistoryInterval: -1,
	})
	ctx := context.Background()
	for _, call := range []func() error{
		func() error { _, err := c.HistoryIndex(ctx); return err },
		func() error { _, err := c.Alerts(ctx); return err },
	} {
		if err := call(); err == nil || !strings.Contains(err.Error(), "HTTP 404") {
			t.Fatalf("disabled endpoint error = %v, want HTTP 404", err)
		}
	}
	// The service still works without history.
	exp, err := c.Experiments().Submit(ctx, fastCfg())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Experiments().Wait(ctx, exp.ID, 5*time.Millisecond); err != nil {
		t.Fatal(err)
	}
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
	sw, err := c.Sweeps().Submit(ctx, fig5MiniSpec())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Sweeps().Wait(ctx, sw.ID, 5*time.Millisecond); err != nil {
		t.Fatal(err)
	}
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
	// A breach-by-construction policy: every job run counts as bad
	// (threshold below the first bucket), tiny windows so the cycle
	// completes in test time.
	cfg := slo.Config{
		Windows: slo.Windows{
			Fast: slo.Duration(50 * time.Millisecond), FastLong: slo.Duration(150 * time.Millisecond), FastBurn: 10,
			Slow: slo.Duration(100 * time.Millisecond), SlowLong: slo.Duration(300 * time.Millisecond), SlowBurn: 5,
		},
		Objectives: []slo.Objective{{
			Name: "synthetic-run-latency", Kind: slo.KindLatency,
			Series: `rfidd_run_seconds{origin="job"}`, Threshold: 0.0000001, Target: 0.99,
		}},
	}
	o := historyOptions()
	o.SLOConfig = &cfg
	s, c := startServer(t, o)
	ctx := context.Background()

	// Let the sampler record a baseline tick first: a counter step is
	// only a step if the ring holds the value before it. (Series exist
	// from construction — probes register eagerly — so wait for actual
	// samples, not for the index to be non-empty.)
	waitFor(t, 5*time.Second, func() bool {
		idx, err := c.HistoryIndex(ctx)
		if err != nil {
			return false
		}
		for _, info := range idx.Series {
			if info.Samples > 0 {
				return true
			}
		}
		return false
	}, "first history tick")

	exp, err := c.Experiments().Submit(ctx, fastCfg())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Experiments().Wait(ctx, exp.ID, 5*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 10*time.Second, func() bool {
		resp, err := c.Alerts(ctx)
		return err == nil && resp.Firing == 1
	}, "synthetic alert to fire")

	// Firing is visible on statusz.
	body, err := c.Statusz(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(body, "synthetic-run-latency") || !strings.Contains(body, "firing") {
		t.Fatalf("statusz does not show the firing alert")
	}

	// Traffic stopped with the one job; the breach ages out → resolves.
	waitFor(t, 10*time.Second, func() bool {
		resp, err := c.Alerts(ctx)
		if err != nil || resp.Firing != 0 {
			return false
		}
		for _, a := range resp.Alerts {
			if a.State == slo.StateResolved || a.State == slo.StateInactive {
				return true
			}
		}
		return false
	}, "synthetic alert to clear")

	// The full transition history is on the alert bus replay ring.
	sub := s.alertBus.Subscribe(1, 0)
	var states []string
drain:
	for {
		select {
		case ev, ok := <-sub.Events():
			if !ok {
				break drain
			}
			if ev.Type == "alert" {
				states = append(states, ev.Data["to"].(string))
			}
		default:
			break drain
		}
	}
	sub.Close()
	var sawFiring, sawClear bool
	for _, st := range states {
		if st == slo.StateFiring {
			sawFiring = true
		}
		if sawFiring && (st == slo.StateResolved || st == slo.StateInactive) {
			sawClear = true
		}
	}
	if !sawFiring || !sawClear {
		t.Fatalf("alert bus transitions = %v, want firing then resolved/inactive", states)
	}
}
