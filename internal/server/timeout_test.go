package server

import (
	"context"
	"strings"
	"testing"
	"time"

	"repro/internal/sim"
)

// TestJobTimeoutBoundsExperimentsNotScenarios: Options.JobTimeout fails
// an experiment that outruns it with a deadline error, while a scenario
// on the same server runs past it to completion.
func TestJobTimeoutBoundsExperimentsNotScenarios(t *testing.T) {
	const timeout = 50 * time.Millisecond
	_, c := startServer(t, Options{Workers: 2, QueueDepth: 4, JobTimeout: timeout})
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()

	long := sim.Config{
		Tags: 3000, Seed: 1, Rounds: 2000,
		Algorithm: sim.AlgFSA, FrameSize: 1500,
		Detector: sim.DetQCD, Strength: 8, Workers: 1,
	}
	exp, err := c.Experiments().Submit(ctx, long)
	if err != nil {
		t.Fatal(err)
	}
	spec := smallScenario()
	spec.DurationMicros = 120_000_000 // well over 100 ms of wall time
	scn, err := c.Scenarios().Submit(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}

	final, err := c.Experiments().Wait(ctx, exp.ID, 0)
	if err != nil {
		t.Fatal(err)
	}
	if final.Status != "failed" || !strings.Contains(final.Error, context.DeadlineExceeded.Error()) {
		t.Errorf("long experiment ended %s (%q), want failed with a deadline error", final.Status, final.Error)
	}

	done, err := c.Scenarios().Wait(ctx, scn.ID, 0)
	if err != nil {
		t.Fatal(err)
	}
	if done.Status != "done" || done.Result == nil {
		t.Fatalf("scenario ended %s (%q), want done with a result", done.Status, done.Error)
	}
	started, err1 := time.Parse(time.RFC3339Nano, done.StartedAt)
	finished, err2 := time.Parse(time.RFC3339Nano, done.FinishedAt)
	if err1 != nil || err2 != nil {
		t.Fatalf("scenario timestamps %q/%q: %v %v", done.StartedAt, done.FinishedAt, err1, err2)
	}
	if run := finished.Sub(started); run <= timeout {
		t.Errorf("scenario ran %v, not past the %v job timeout: the test shows nothing", run, timeout)
	}
}
