package main

// The obs case: a traced sweep's span tree, statusz, the metrics
// history and a synthetic SLO alert cycle.

import (
	"context"
	"encoding/json"
	"fmt"
	"slices"
	"strings"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/obs/slo"
	"repro/internal/obs/tsdb"
	"repro/internal/server"
)

// Synthetic SLO policy: a gauge objective on the process goroutine
// count, which the smoke can push over threshold deterministically by
// parking goroutines — no dependence on simulator or scheduler speed.
// The fast pair is disabled (unreachable burn) so the objective walks
// the slow pair: pending once the short window is hot, firing once the
// long window confirms.
const (
	goroutineCeiling = 1500
	parkedGoroutines = 3000
)

func obsOptions() server.Options {
	cfg := slo.Config{
		Windows: slo.Windows{
			Fast: slo.Duration(60 * time.Millisecond), FastLong: slo.Duration(180 * time.Millisecond), FastBurn: 1e9,
			Slow: slo.Duration(150 * time.Millisecond), SlowLong: slo.Duration(450 * time.Millisecond), SlowBurn: 5,
		},
		Objectives: []slo.Objective{{
			Name: "smoke-goroutine-ceiling", Kind: slo.KindGauge,
			Series: "runtime_goroutines", Threshold: goroutineCeiling, Target: 0.9,
			Description: "synthetic objective the smoke breaches on purpose",
		}},
	}
	return server.Options{
		Workers: 2, QueueDepth: 16, CacheSize: 64,
		HistoryInterval:  25 * time.Millisecond,
		HistoryRetention: 2 * time.Minute,
		SLOConfig:        &cfg,
	}
}

func obsCase(ctx context.Context, c *server.Client) error {
	// A counter step only registers in the history if the ring holds the
	// pre-step value, so wait for at least one real sample before driving
	// traffic. (Series exist from construction; require Samples > 0.)
	if err := waitFor(ctx, "first history tick", func() (bool, error) {
		idx, err := c.HistoryIndex(ctx)
		if err != nil {
			return false, err
		}
		for _, info := range idx.Series {
			if info.Samples > 0 {
				return true, nil
			}
		}
		return false, nil
	}); err != nil {
		return err
	}

	sub, traceID, err := runSweep(ctx, c, gridSpec("obssmoke"), "")
	if err != nil {
		return err
	}
	if !obs.ValidTraceID(traceID) {
		return fmt.Errorf("X-Trace-Id response header %q is not a valid trace ID", traceID)
	}
	if err := checkTrace(ctx, c, traceID); err != nil {
		return err
	}
	if err := checkStatusz(ctx, c, sub.ID); err != nil {
		return err
	}
	if err := checkHistory(ctx, c); err != nil {
		return err
	}
	if err := checkSyntheticAlert(ctx, c); err != nil {
		return err
	}
	// The full exposition, including the runtime_*, obs_tsdb_* and slo_*
	// families, must pass the linter.
	return lintMetrics(ctx, c, "runtime_goroutines", "obs_tsdb_ticks_total", "slo_burn_rate")
}

// checkHistory asserts the history store served real derived series for
// the sweep that just ran: per-second rates for the queue-wait and
// run-latency counts, and raw points for the cache hit ratio.
func checkHistory(ctx context.Context, c *server.Client) error {
	rateSeries := []string{
		`rfidd_queue_wait_seconds_count{origin="sweep"}`,
		`rfidd_run_seconds_count{origin="sweep"}`,
	}
	// The sweep's count steps land on the next tick; poll briefly.
	if err := waitFor(ctx, "sweep rate series", func() (bool, error) {
		resp, err := c.MetricsHistory(ctx, rateSeries, 0, tsdb.ReduceRate)
		if err != nil {
			return false, err
		}
		for _, res := range resp.Results {
			if !slices.ContainsFunc(res.Points, func(p tsdb.Point) bool { return p.V > 0 }) {
				return false, nil
			}
		}
		return true, nil
	}); err != nil {
		return err
	}
	resp, err := c.MetricsHistory(ctx, []string{"rfidd_cache_hit_ratio"}, 0, tsdb.ReduceRaw)
	if err != nil {
		return fmt.Errorf("cache hit ratio history: %w", err)
	}
	if len(resp.Results) != 1 || len(resp.Results[0].Points) == 0 {
		return fmt.Errorf("cache hit ratio history is empty")
	}
	return nil
}

// checkSyntheticAlert breaches the smoke's goroutine-ceiling objective
// by parking goroutines, follows the alert through pending → firing on
// /v1/alerts and statusz, releases the goroutines, waits for the clear,
// and finally replays the bus to assert the exact transition order.
func checkSyntheticAlert(ctx context.Context, c *server.Client) error {
	state := func() (string, int, error) {
		resp, err := c.Alerts(ctx)
		if err != nil {
			return "", 0, err
		}
		for _, a := range resp.Alerts {
			if a.Objective == "smoke-goroutine-ceiling" {
				return a.State, resp.Firing, nil
			}
		}
		return "", 0, fmt.Errorf("objective smoke-goroutine-ceiling missing from /v1/alerts")
	}
	if st, firing, err := state(); err != nil {
		return err
	} else if st != slo.StateInactive || firing != 0 {
		return fmt.Errorf("before breach: state=%s firing=%d, want inactive/0 "+
			"(is the baseline goroutine count already above %d?)", st, firing, goroutineCeiling)
	}

	// Breach: hold the process goroutine count far above the ceiling.
	release := make(chan struct{})
	unpark := sync.OnceFunc(func() { close(release) })
	defer unpark()
	for i := 0; i < parkedGoroutines; i++ {
		go func() { <-release }()
	}

	sawPending := false
	if err := waitFor(ctx, "synthetic alert to fire", func() (bool, error) {
		st, firing, err := state()
		if err != nil {
			return false, err
		}
		if st == slo.StatePending {
			sawPending = true
		}
		return st == slo.StateFiring && firing == 1, nil
	}); err != nil {
		return err
	}
	body, err := c.Statusz(ctx)
	if err != nil {
		return fmt.Errorf("statusz during breach: %w", err)
	}
	if !strings.Contains(body, "smoke-goroutine-ceiling") || !strings.Contains(body, "firing") {
		return fmt.Errorf("statusz does not show the firing synthetic alert")
	}

	// Clear: release the goroutines and wait for the breach to age out.
	unpark()
	if err := waitFor(ctx, "synthetic alert to clear", func() (bool, error) {
		st, firing, err := state()
		if err != nil {
			return false, err
		}
		return firing == 0 && (st == slo.StateResolved || st == slo.StateInactive), nil
	}); err != nil {
		return err
	}

	// The bus replay ring holds the whole transition log; polling above
	// may have skipped states, the bus cannot.
	var states []string
	wctx, wcancel := context.WithTimeout(ctx, 10*time.Second)
	defer wcancel()
	err = c.WatchAlerts(wctx, func(ev server.WatchEvent) error {
		if ev.Type == "alert" {
			if to, _ := ev.Data["to"].(string); to != "" {
				states = append(states, to)
			}
		}
		if hasSubsequence(states, []string{slo.StatePending, slo.StateFiring, slo.StateResolved}) {
			return server.ErrStopWatch
		}
		return nil
	})
	if err != nil && wctx.Err() == nil {
		return fmt.Errorf("alert event stream: %w", err)
	}
	if !hasSubsequence(states, []string{slo.StatePending, slo.StateFiring, slo.StateResolved}) {
		return fmt.Errorf("alert bus transitions %v missing pending→firing→resolved", states)
	}
	if !sawPending {
		// Not fatal — polling raced past it — but the bus check above
		// proves the state machine went through pending regardless.
		fmt.Println("smoke: obs: note: pending observed on the bus only (poll raced past it)")
	}
	return nil
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

// checkTrace fetches the sweep's trace and walks the span tree.
func checkTrace(ctx context.Context, c *server.Client, traceID string) error {
	body, err := c.Trace(ctx, traceID, "")
	if err != nil {
		return fmt.Errorf("trace fetch: %w", err)
	}
	var doc struct {
		TraceEvents []obs.Event `json:"traceEvents"`
	}
	if err := json.Unmarshal([]byte(body), &doc); err != nil {
		return fmt.Errorf("trace %s is not Chrome trace-event JSON: %w", traceID, err)
	}
	if len(doc.TraceEvents) == 0 {
		return fmt.Errorf("trace %s has an empty span tree", traceID)
	}

	spanArg := func(ev obs.Event, key string) uint64 {
		if v, ok := ev.Args[key].(float64); ok {
			return uint64(v)
		}
		return 0
	}
	// Events arrive in completion order (cells before the sweep span
	// that parents them), so identify the tree nodes first, then check
	// every parent edge.
	var reqID, sweepID uint64
	cells := 0
	cats := map[string]int{}
	for _, ev := range doc.TraceEvents {
		cats[ev.Cat]++
		switch ev.Cat {
		case "http":
			reqID = spanArg(ev, "span")
		case "sweep":
			sweepID = spanArg(ev, "span")
		case "cell":
			cells++
		}
	}
	for _, ev := range doc.TraceEvents {
		switch ev.Cat {
		case "sweep":
			if parent := spanArg(ev, "parent"); reqID == 0 || parent != reqID {
				return fmt.Errorf("sweep span parent = %d, want request span %d", parent, reqID)
			}
		case "cell":
			if parent := spanArg(ev, "parent"); sweepID == 0 || parent != sweepID {
				return fmt.Errorf("cell span %q parent = %d, want sweep span %d", ev.Name, parent, sweepID)
			}
		}
	}
	if reqID == 0 || sweepID == 0 || cells != 4 {
		return fmt.Errorf("span tree incomplete: request=%d sweep=%d cells=%d (cats %v)",
			reqID, sweepID, cells, cats)
	}
	for _, cat := range []string{"jobs", "sim"} {
		if cats[cat] == 0 {
			return fmt.Errorf("no %q spans joined into trace %s: %v", cat, traceID, cats)
		}
	}
	return nil
}

// checkStatusz fetches /debug/statusz and spot-checks the sections.
func checkStatusz(ctx context.Context, c *server.Client, sweepID string) error {
	body, err := c.Statusz(ctx)
	if err != nil {
		return fmt.Errorf("statusz fetch: %w", err)
	}
	for _, want := range []string{
		"rfidd statusz", "worker pool", "result cache", "sweeps",
		"recent wide events", sweepID,
	} {
		if !strings.Contains(body, want) {
			return fmt.Errorf("statusz missing %q", want)
		}
	}
	if n := strings.Count(body, "<td>sweep</td><td>"+sweepID+"/c"); n != 4 {
		return fmt.Errorf("statusz shows %d wide-event rows for %s, want 4", n, sweepID)
	}
	return nil
}
