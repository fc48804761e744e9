package main

// The -sweep path: rfidsim -sweep spec.json expands a parameter-grid
// spec (internal/sweep) and runs its cells on a local worker pool —
// the same scheduler, cache dedup and merged reporting the rfidd
// service uses, without a daemon. Output is the merged paper-style
// table (default), CSV (-csv), or per-cell JSON records (-json).

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"runtime"

	"repro/internal/jobs"
	"repro/internal/obs"
	"repro/internal/rescache"
	"repro/internal/sim"
	"repro/internal/sweep"
)

// sweepCellOut is one cell in the -sweep -json output.
type sweepCellOut struct {
	Index  int             `json:"index"`
	Label  string          `json:"label"`
	Coords []string        `json:"coords,omitempty"`
	Status string          `json:"status"`
	Source string          `json:"source"` // run | cache | coalesced
	Result json.RawMessage `json:"result,omitempty"`
	Error  string          `json:"error,omitempty"`
}

// runSweep executes the -sweep code path and returns the exit code.
func runSweep(ctx context.Context, path string, workers int, jsonOut, csvOut, progress bool, stdout, stderr io.Writer) int {
	spec, err := loadSpec[sweep.Spec](path)
	if err != nil {
		fmt.Fprintln(stderr, "rfidsim: sweep:", err)
		return 1
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	plan, err := sweep.NewPlan(spec)
	if err != nil {
		fmt.Fprintln(stderr, "rfidsim: sweep:", err)
		return 1
	}

	pool := jobs.NewPool(jobs.Options{Workers: workers, QueueDepth: workers * 4})
	defer pool.Shutdown(context.Background())
	runner := &sweep.Runner{
		Pool:    pool,
		Cache:   rescache.New(plan.Len() + 1),
		Scratch: &sim.ScratchPool{},
	}
	var bus *obs.Bus
	progressDone := make(chan struct{})
	if progress {
		bus = obs.NewBus(2*plan.Len() + 16)
		sub := bus.Subscribe(2*plan.Len()+16, 0)
		go func() {
			defer close(progressDone)
			printed := false
			for ev := range sub.Events() {
				if ev.Type != "cell" {
					continue
				}
				fmt.Fprintf(stderr, "\rcell %v/%v  %v %v    ",
					ev.Data["done"], ev.Data["cells"], ev.Data["label"], ev.Data["status"])
				printed = true
			}
			if printed {
				fmt.Fprintln(stderr)
			}
		}()
	} else {
		close(progressDone)
	}

	s := runner.Start(ctx, "sweep", plan, bus)
	if err := s.Wait(ctx); err != nil {
		s.Cancel()
		_ = s.Wait(context.Background())
	}
	<-progressDone

	snap := s.Snapshot()
	switch {
	case jsonOut:
		cells := s.Cells("")
		out := make([]sweepCellOut, 0, len(cells))
		for _, c := range cells {
			out = append(out, sweepCellOut{
				Index: c.Index, Label: c.Label, Coords: c.Coords,
				Status: string(c.Status), Source: string(c.Source), Result: c.Result, Error: c.Err,
			})
		}
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(out); err != nil {
			fmt.Fprintln(stderr, "rfidsim: sweep:", err)
			return 1
		}
	default:
		tbl, err := s.MergedTable()
		if err != nil {
			fmt.Fprintln(stderr, "rfidsim: sweep:", err)
			return 1
		}
		if csvOut {
			fmt.Fprint(stdout, tbl.CSV())
		} else {
			fmt.Fprint(stdout, tbl.Render())
		}
	}
	if snap.Status != jobs.StatusDone {
		fmt.Fprintf(stderr, "rfidsim: sweep %s: %d/%d cells done (%d failed, %d canceled)\n",
			snap.Status, snap.Counts.Done, snap.Counts.Cells, snap.Counts.Failed, snap.Counts.Canceled)
		if snap.Status == jobs.StatusCanceled {
			return 2
		}
		return 1
	}
	return 0
}
