package main

// The -scenario path: rfidsim -scenario spec.json runs a streaming
// warehouse scenario (internal/scenario) locally — the same engine the
// rfidd service exposes as POST /v1/scenarios, without a daemon.
// Output is a summary table (default) or the Result JSON (-json);
// -progress renders a live per-epoch status line on stderr.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"

	"repro/internal/report"
	"repro/internal/scenario"
)

// runScenario executes the -scenario code path and returns the exit
// code. A ctx timeout (-timeout) aborts the run; the partial result is
// still printed before exiting 2, mirroring the single-experiment path.
func runScenario(ctx context.Context, path string, workers int, jsonOut, progress bool, stdout, stderr io.Writer) int {
	spec, err := loadSpec[scenario.Spec](path)
	if err != nil {
		fmt.Fprintln(stderr, "rfidsim: scenario:", err)
		return 1
	}
	if workers > 0 {
		spec.Workers = workers
	}
	spec = spec.WithDefaults()
	if err := spec.Validate(); err != nil {
		fmt.Fprintln(stderr, "rfidsim: scenario:", err)
		return 1
	}

	var opts scenario.Options
	printedProgress := false
	if progress {
		opts.OnEpoch = func(p scenario.Progress) {
			fmt.Fprintf(stderr, "\repoch %d  t=%.0fms  live %d  read %d  missed %d  miss %.3f    ",
				p.Epoch, p.SimMicros/1000, p.Live, p.Read, p.Missed, p.MissRate)
			printedProgress = true
		}
	}
	res, err := scenario.RunContext(ctx, spec, opts)
	if printedProgress {
		fmt.Fprintln(stderr)
	}
	aborted := errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled)
	if err != nil && !aborted {
		fmt.Fprintln(stderr, "rfidsim: scenario:", err)
		return 1
	}
	if aborted {
		fmt.Fprintf(stderr, "rfidsim: scenario aborted after %d epochs; flushing partial results\n", res.Epochs)
	}

	if jsonOut {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(res); err != nil {
			fmt.Fprintln(stderr, "rfidsim:", err)
			return 1
		}
	} else {
		printScenario(stdout, res)
	}
	if aborted {
		return 2
	}
	return 0
}

// printScenario renders the run summary as the paper-style table.
func printScenario(w io.Writer, res *scenario.Result) {
	name := res.Spec.Name
	if name == "" {
		name = "scenario"
	}
	title := fmt.Sprintf("%s: %d readers (%d colours), λ=%g tags/s, %.0f ms simulated",
		name, res.Spec.Readers, res.Colors, res.Spec.ArrivalsPerSecond, res.SimMicros/1000)
	t := report.NewTable(title, "metric", "value")
	row := func(k, v string) { t.AddRow(k, v) }
	row("epochs", fmt.Sprintf("%d", res.Epochs))
	row("arrived", fmt.Sprintf("%d", res.Arrived))
	row("covered", fmt.Sprintf("%d", res.Covered))
	row("read", fmt.Sprintf("%d", res.Read))
	row("missed", fmt.Sprintf("%d", res.Missed))
	row("miss rate", report.F(res.MissRate(), 4))
	row("first-read latency mean (μs)", report.F(res.LatencyMeanMicros, 1))
	row("first-read latency max (μs)", report.F(res.LatencyMaxMicros, 1))
	row("peak live tags", fmt.Sprintf("%d", res.PeakLive))
	row("slots idle/single/collided", fmt.Sprintf("%d/%d/%d",
		res.Census.Idle, res.Census.Single, res.Census.Collided))
	row("frames", fmt.Sprintf("%d", res.Census.Frames))
	row("airtime (μs)", report.F(res.AirtimeMicros, 0))
	fmt.Fprint(w, t.Render())
}
