// Command smoke is the CI smoke test for the rfidd service. Each case
// boots the service in-process on a loopback listener with its own
// options, drives it over HTTP through the typed client, and shuts it
// down:
//
//   - sweep: a 2×2 grid through POST /v1/sweeps yields a well-shaped
//     merged CSV, and repeating it is served from the result cache
//     (sweep-origin hits on /metrics).
//   - scenario: a small streaming warehouse run through POST
//     /v1/scenarios streams epoch progress and a terminal event over
//     SSE, and the same spec pinned to 1 and 4 workers produces
//     byte-identical results (the workers field aside).
//   - obs: a traced sweep yields a joined span tree on /v1/traces/{id}
//     (request → sweep → every cell, with pool and simulator spans),
//     /debug/statusz renders its sections, /v1/metrics/history serves
//     real rate series for the sweep, and a synthetic SLO breach walks
//     pending → firing → resolved on the alert bus, /v1/alerts and
//     statusz.
//
// Every case ends by passing the full live /metrics exposition through
// the Prometheus text-format linter. The first failure exits non-zero,
// naming its case, so scripts/check.sh and CI can gate on it.
//
// Usage: go run ./cmd/smoke
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os"
	"strings"
	"time"

	"repro/internal/obs"
	"repro/internal/scenario"
	"repro/internal/server"
	"repro/internal/sim"
	"repro/internal/sweep"
)

// smokeCase is one scenario driven against a fresh service.
type smokeCase struct {
	name string
	opts func() server.Options
	run  func(ctx context.Context, c *server.Client) error
}

var cases = []smokeCase{
	{"sweep", func() server.Options { return server.Options{Workers: 2, QueueDepth: 16, CacheSize: 64} }, sweepCase},
	{"scenario", func() server.Options { return server.Options{Workers: 2, QueueDepth: 16} }, scenarioCase},
	{"obs", obsOptions, obsCase},
}

func main() {
	for _, sc := range cases {
		if err := runCase(sc); err != nil {
			fmt.Fprintf(os.Stderr, "smoke: %s: %v\n", sc.name, err)
			os.Exit(1)
		}
		fmt.Printf("smoke: %s ok\n", sc.name)
	}
	fmt.Println("smoke: ok")
}

// runCase boots a service with the case's options on a loopback
// listener, runs the case against it, and shuts it down.
func runCase(sc smokeCase) error {
	svc := server.New(sc.opts())
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	httpSrv := &http.Server{Handler: svc.Handler()}
	go func() { _ = httpSrv.Serve(ln) }()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = httpSrv.Shutdown(ctx)
		_ = svc.Shutdown(ctx)
	}()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	return sc.run(ctx, server.NewClient("http://"+ln.Addr().String()))
}

// gridSpec is the 2×2 tags × strength sweep the sweep and obs cases run.
func gridSpec(name string) sweep.Spec {
	return sweep.Spec{
		Name: name,
		Base: sim.Config{
			Tags: 60, Seed: 42, Rounds: 3,
			Algorithm: sim.AlgFSA, FrameSize: 40,
			Detector: sim.DetQCD, Strength: 8,
		},
		Axes: []sweep.Axis{
			{Field: sweep.FieldTags, Ints: []int{40, 80}},
			{Field: sweep.FieldStrength, Ints: []int{4, 8}},
		},
	}
}

// runSweep submits spec (under trace traceID, minted when empty) and
// waits for it to end done with every cell done.
func runSweep(ctx context.Context, c *server.Client, spec sweep.Spec, traceID string) (server.SweepResponse, string, error) {
	sub, gotTrace, err := c.Sweeps().SubmitTraced(ctx, spec, traceID)
	if err != nil {
		return sub, gotTrace, fmt.Errorf("submit: %w", err)
	}
	final, err := c.Sweeps().Wait(ctx, sub.ID, 0)
	if err != nil {
		return final, gotTrace, fmt.Errorf("wait: %w", err)
	}
	if final.Status != "done" || final.Counts.Done != 4 {
		return final, gotTrace, fmt.Errorf("sweep finished %s with counts %+v", final.Status, final.Counts)
	}
	return final, gotTrace, nil
}

func sweepCase(ctx context.Context, c *server.Client) error {
	spec := gridSpec("smoke")
	first, _, err := runSweep(ctx, c, spec, "")
	if err != nil {
		return err
	}

	// Merged CSV: header (axes + metrics + source) plus one row per cell.
	csv, err := c.SweepReport(ctx, first.ID, "csv")
	if err != nil {
		return fmt.Errorf("report: %w", err)
	}
	lines := strings.Split(strings.TrimSpace(csv), "\n")
	if len(lines) != 5 {
		return fmt.Errorf("merged CSV has %d lines, want 5:\n%s", len(lines), csv)
	}
	if !strings.HasPrefix(lines[0], "tags,strength,") || !strings.HasSuffix(lines[0], ",source") {
		return fmt.Errorf("merged CSV header %q", lines[0])
	}
	for _, l := range lines[1:] {
		if n := strings.Count(l, ","); n != strings.Count(lines[0], ",") {
			return fmt.Errorf("ragged CSV row %q", l)
		}
	}

	// Repeating the sweep must be served from the result cache.
	second, _, err := runSweep(ctx, c, spec, "")
	if err != nil {
		return fmt.Errorf("second sweep: %w", err)
	}
	if second.Counts.Cached < 1 {
		return fmt.Errorf("second sweep hit the cache %d times, want >= 1 (counts %+v)",
			second.Counts.Cached, second.Counts)
	}
	return lintMetrics(ctx, c, `rfidd_cache_origin_hits_total{origin="sweep"} 4`)
}

func scenarioCase(ctx context.Context, c *server.Client) error {
	spec := scenario.Spec{
		Name:                     "smoke",
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

	// One run per worker count, watched over SSE. Results must match
	// bit for bit: worker count is scheduling, never arithmetic.
	results := map[int][]byte{}
	for _, workers := range []int{1, 4} {
		s := spec
		s.Workers = workers
		sub, err := c.Scenarios().Submit(ctx, s)
		if err != nil {
			return fmt.Errorf("submit (workers=%d): %w", workers, err)
		}
		epochs := 0
		var terminal map[string]any
		err = c.Scenarios().Watch(ctx, sub.ID, func(ev server.WatchEvent) error {
			switch ev.Type {
			case "epoch":
				epochs++
			case "scenario":
				terminal = ev.Data
			}
			return nil
		})
		if err != nil {
			return fmt.Errorf("watch %s: %w", sub.ID, err)
		}
		if epochs == 0 {
			return fmt.Errorf("%s streamed no epoch events", sub.ID)
		}
		if terminal["status"] != "done" {
			return fmt.Errorf("%s terminal event %v", sub.ID, terminal)
		}
		fin, err := c.Scenarios().Get(ctx, sub.ID)
		if err != nil {
			return fmt.Errorf("get %s: %w", sub.ID, err)
		}
		if fin.Status != "done" || len(fin.Result) == 0 {
			return fmt.Errorf("%s finished %s with %d result bytes", sub.ID, fin.Status, len(fin.Result))
		}
		var res scenario.Result
		if err := json.Unmarshal(fin.Result, &res); err != nil {
			return fmt.Errorf("%s result: %w", sub.ID, err)
		}
		if res.Read == 0 || res.Colors < 2 {
			return fmt.Errorf("%s degenerate result: read %d, colours %d", sub.ID, res.Read, res.Colors)
		}
		// Neutralise the one intentionally differing field before the
		// byte comparison.
		res.Spec.Workers = 0
		if results[workers], err = json.Marshal(&res); err != nil {
			return err
		}
	}
	if !bytes.Equal(results[1], results[4]) {
		return fmt.Errorf("worker count changed the result:\n1: %s\n4: %s", results[1], results[4])
	}
	return lintMetrics(ctx, c, "rfidd_scenarios 2")
}

// lintMetrics fetches the live exposition, requires every want line
// (showing the exposition lines of its family when one is missing), and
// passes the whole text through the Prometheus text-format linter.
func lintMetrics(ctx context.Context, c *server.Client, wants ...string) error {
	text, err := c.Metrics(ctx)
	if err != nil {
		return fmt.Errorf("metrics: %w", err)
	}
	for _, want := range wants {
		if !strings.Contains(text, want) {
			family, _, _ := strings.Cut(strings.Fields(want)[0], "{")
			return fmt.Errorf("metrics lack %q:\n%s", want, grepLines(text, family))
		}
	}
	if errs := obs.LintPrometheus(text); len(errs) > 0 {
		return fmt.Errorf("/metrics failed exposition lint with %d errors: %v", len(errs), errs)
	}
	return nil
}

// grepLines keeps error output readable: only the exposition lines
// containing the substring.
func grepLines(text, substr string) string {
	var out []string
	for _, l := range strings.Split(text, "\n") {
		if strings.Contains(l, substr) {
			out = append(out, l)
		}
	}
	return strings.Join(out, "\n")
}

// waitFor polls cond until it holds, cond fails hard, or ctx ends.
func waitFor(ctx context.Context, what string, cond func() (bool, error)) error {
	for {
		ok, err := cond()
		if err != nil {
			return fmt.Errorf("waiting for %s: %w", what, err)
		}
		if ok {
			return nil
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("timed out waiting for %s", what)
		case <-time.After(10 * time.Millisecond):
		}
	}
}
