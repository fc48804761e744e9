package server

import (
	"bytes"
	"context"
	"net/http"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/sweep"
)

func fig5MiniSpec() sweep.Spec {
	return sweep.Spec{
		Name: "fig5-mini",
		Base: fastCfg(),
		Axes: []sweep.Axis{
			{Field: sweep.FieldCase, Cases: []sweep.Case{
				{Name: "I", Tags: 40, Frame: 40},
				{Name: "II", Tags: 80, Frame: 40},
			}},
			{Field: sweep.FieldStrength, Ints: []int{4, 8}},
		},
	}
}

func TestSweepEndToEnd(t *testing.T) {
	_, c := startServer(t, Options{Workers: 2, QueueDepth: 8, CacheSize: 64})
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	sw, err := c.Sweeps().Submit(ctx, fig5MiniSpec())
	if err != nil {
		t.Fatalf("SubmitSweep: %v", err)
	}
	if sw.ID == "" || sw.Counts.Cells != 4 {
		t.Fatalf("sweep record %+v", sw)
	}

	// Per-cell progress over SSE: every cell must report done, then the
	// terminal sweep event ends the stream.
	var cellDone int
	var sweepEvents int
	err = c.Sweeps().Watch(ctx, sw.ID, func(ev WatchEvent) error {
		switch ev.Type {
		case "cell":
			if ev.Data["status"] == "done" {
				cellDone++
			}
		case "sweep":
			sweepEvents++
		}
		return nil
	})
	if err != nil {
		t.Fatalf("WatchSweep: %v", err)
	}
	if cellDone != 4 || sweepEvents != 1 {
		t.Fatalf("saw %d cell-done and %d sweep events, want 4 and 1", cellDone, sweepEvents)
	}

	final, err := c.Sweeps().Wait(ctx, sw.ID, 0)
	if err != nil {
		t.Fatalf("WaitSweep: %v", err)
	}
	if final.Status != "done" || final.Counts.Done != 4 {
		t.Fatalf("final sweep %+v", final)
	}

	// Every cell result must be byte-identical to a single-job
	// submission of the same configuration — which is now served from
	// the cache the sweep populated.
	cells, err := c.SweepCells(ctx, sw.ID, "", true)
	if err != nil {
		t.Fatalf("SweepCells: %v", err)
	}
	if len(cells) != 4 {
		t.Fatalf("got %d cells", len(cells))
	}
	for _, cell := range cells {
		single, err := c.Experiments().Submit(ctx, cell.Config)
		if err != nil {
			t.Fatalf("resubmitting cell %d: %v", cell.Index, err)
		}
		if !single.Cached {
			t.Errorf("cell %d config not served from the sweep-populated cache", cell.Index)
		}
		if !bytes.Equal(cell.Result, single.Result) {
			t.Errorf("cell %d result diverges from the single-job bytes:\n%s\n%s",
				cell.Index, cell.Result, single.Result)
		}
	}

	// Merged outputs: axis columns plus metrics, one row per cell.
	csv, err := c.SweepReport(ctx, sw.ID, "csv")
	if err != nil {
		t.Fatalf("SweepReport csv: %v", err)
	}
	lines := strings.Split(strings.TrimSpace(csv), "\n")
	if len(lines) != 5 {
		t.Fatalf("merged CSV has %d lines, want 5:\n%s", len(lines), csv)
	}
	if !strings.HasPrefix(lines[0], "case,strength,") || !strings.HasSuffix(lines[0], ",source") {
		t.Fatalf("merged CSV header %q", lines[0])
	}
	for _, l := range lines[1:] {
		if strings.Count(l, ",") != strings.Count(lines[0], ",") {
			t.Errorf("ragged CSV row %q under header %q", l, lines[0])
		}
	}
	table, err := c.SweepReport(ctx, sw.ID, "table")
	if err != nil {
		t.Fatalf("SweepReport table: %v", err)
	}
	if !strings.Contains(table, "strength") || !strings.Contains(table, "run") {
		t.Fatalf("merged table lacks expected columns:\n%s", table)
	}

	// The same sweep again: all four cells short-circuit through the
	// cache, attributed to the sweep origin on /metrics.
	sw2, err := c.Sweeps().Submit(ctx, fig5MiniSpec())
	if err != nil {
		t.Fatalf("second SubmitSweep: %v", err)
	}
	final2, err := c.Sweeps().Wait(ctx, sw2.ID, 0)
	if err != nil {
		t.Fatalf("WaitSweep (second): %v", err)
	}
	if final2.Counts.Cached != 4 {
		t.Fatalf("second sweep cached %d cells, want 4: %+v", final2.Counts.Cached, final2.Counts)
	}

	lintLiveMetrics(t, c,
		`rfidd_cache_origin_hits_total{origin="sweep"} 4`,
		`rfidd_cache_origin_misses_total{origin="sweep"} 4`,
		`rfidd_cache_origin_hits_total{origin="job"} 4`,
		`rfidd_sweep_cells_run_total 4`,
		`rfidd_sweep_cells_cached_total 4`,
		`rfidd_sweep_sweeps_finished_total 2`,
		`rfidd_sweeps 2`)

	// Sweep listing includes both runs in submission order.
	list, err := c.Sweeps().List(ctx, "")
	if err != nil {
		t.Fatalf("ListSweeps: %v", err)
	}
	if len(list) != 2 || list[0].ID != sw.ID || list[1].ID != sw2.ID {
		t.Fatalf("sweep listing %+v", list)
	}
}

func TestSweepCellStatusFilterSharedWithExperiments(t *testing.T) {
	_, c := startServer(t, Options{Workers: 2, QueueDepth: 8})
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	sw, err := c.Sweeps().Submit(ctx, fig5MiniSpec())
	if err != nil {
		t.Fatalf("SubmitSweep: %v", err)
	}
	if _, err := c.Sweeps().Wait(ctx, sw.ID, 0); err != nil {
		t.Fatalf("WaitSweep: %v", err)
	}
	done, err := c.SweepCells(ctx, sw.ID, "done", false)
	if err != nil {
		t.Fatalf("SweepCells done: %v", err)
	}
	if len(done) != 4 {
		t.Errorf("done filter returned %d cells, want 4", len(done))
	}
	failed, err := c.SweepCells(ctx, sw.ID, "failed", false)
	if err != nil {
		t.Fatalf("SweepCells failed: %v", err)
	}
	if len(failed) != 0 {
		t.Errorf("failed filter returned %d cells, want 0", len(failed))
	}
	if _, err := c.SweepCells(ctx, sw.ID, "bogus", false); err == nil {
		t.Error("bogus cell status filter accepted")
	}

	// The same ?status= vocabulary on the experiment listing.
	exp, err := c.Experiments().Submit(ctx, fastCfg())
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if _, err := c.Experiments().Wait(ctx, exp.ID, 0); err != nil {
		t.Fatalf("Wait: %v", err)
	}
	doneExps, err := c.Experiments().List(ctx, "done")
	if err != nil {
		t.Fatalf("ListStatus done: %v", err)
	}
	if len(doneExps) == 0 {
		t.Error("done experiment filter returned nothing")
	}
	queued, err := c.Experiments().List(ctx, "queued")
	if err != nil {
		t.Fatalf("ListStatus queued: %v", err)
	}
	if len(queued) != 0 {
		t.Errorf("queued filter returned %d experiments, want 0", len(queued))
	}
	if _, err := c.Experiments().List(ctx, "bogus"); err == nil {
		t.Error("bogus experiment status filter accepted")
	}
}

func TestSweepCancelEndpoint(t *testing.T) {
	_, c := startServer(t, Options{Workers: 1, QueueDepth: 4})
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	spec := sweep.Spec{
		Base: fastCfg(),
		Axes: []sweep.Axis{{Field: sweep.FieldSeed, Range: &sweep.Range{From: 1, To: 32}}},
	}
	spec.Base.Tags = 300
	spec.Base.Rounds = 30
	sw, err := c.Sweeps().Submit(ctx, spec)
	if err != nil {
		t.Fatalf("SubmitSweep: %v", err)
	}
	if err := c.Sweeps().Cancel(ctx, sw.ID); err != nil {
		t.Fatalf("CancelSweep: %v", err)
	}
	final, err := c.Sweeps().Wait(ctx, sw.ID, 0)
	if err != nil {
		t.Fatalf("WaitSweep: %v", err)
	}
	if final.Status != "canceled" {
		t.Errorf("sweep status %s after cancel", final.Status)
	}
	if final.Counts.Canceled == 0 {
		t.Error("cancel canceled no cells")
	}
}

func TestSweepRejectsBadSpecs(t *testing.T) {
	_, c := startServer(t, Options{Workers: 1, SweepMaxCells: 8})
	ctx := context.Background()

	// Over the server's cell cap.
	big := sweep.Spec{
		Base: fastCfg(),
		Axes: []sweep.Axis{{Field: sweep.FieldSeed, Range: &sweep.Range{From: 1, To: 100}}},
	}
	if _, err := c.Sweeps().Submit(ctx, big); err == nil {
		t.Error("a 100-cell sweep passed an 8-cell cap")
	}
	// Structurally invalid axis.
	bad := sweep.Spec{
		Base: fastCfg(),
		Axes: []sweep.Axis{{Field: "bogus", Ints: []int{1}}},
	}
	if _, err := c.Sweeps().Submit(ctx, bad); err == nil {
		t.Error("unknown axis field accepted")
	}
	// Invalid per-cell config.
	badCell := sweep.Spec{
		Base: fastCfg(),
		Axes: []sweep.Axis{{Field: sweep.FieldTags, Ints: []int{-4}}},
	}
	if _, err := c.Sweeps().Submit(ctx, badCell); err == nil {
		t.Error("negative tags cell accepted")
	}
	if _, err := c.Sweeps().Get(ctx, "swp-404"); err == nil {
		t.Error("unknown sweep id did not 404")
	}
}

// hostileSweepBodies ask for ranges whose values no server could hold
// or whose term-by-term expansion never ends (mul wraps to 0, step
// wraps negative); FuzzSubmitKey seeds from them too.
var hostileSweepBodies = []string{
	`{"spec":{"base":{"Tags":30,"Algorithm":"fsa","FrameSize":16,"Detector":"qcd"},"axes":[{"field":"tags","range":{"from":1,"to":16777216}}]}}`,
	`{"spec":{"base":{"Tags":30,"Algorithm":"fsa","FrameSize":16,"Detector":"qcd"},"axes":[{"field":"tags","range":{"from":1,"to":1099511627776}}]}}`,
	`{"spec":{"base":{"Tags":30,"Algorithm":"fsa","FrameSize":16,"Detector":"qcd"},"axes":[{"field":"strength","range":{"from":1,"to":9223372036854775807,"mul":2}}]}}`,
	`{"spec":{"base":{"Tags":30,"Algorithm":"fsa","FrameSize":16,"Detector":"qcd"},"axes":[{"field":"strength","range":{"from":9223372036854775806,"to":9223372036854775807,"step":2}}]}}`,
}

func TestHostileSweepRangesAre400(t *testing.T) {
	_, c := startServer(t, Options{Workers: 1})
	for _, body := range hostileSweepBodies {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		code, _, resp := postRaw(t, c.BaseURL+"/v1/sweeps", []byte(body))
		runtime.ReadMemStats(&after)
		if code != http.StatusBadRequest {
			t.Errorf("%s: %d %s, want 400", body, code, resp)
		}
		if b := after.TotalAlloc - before.TotalAlloc; b > 32<<20 {
			t.Errorf("%s: the request allocated %d MB", body, b>>20)
		}
	}
}
