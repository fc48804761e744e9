package sweep

import (
	"bytes"
	"context"
	"encoding/json"
	"strings"
	"testing"
	"time"

	"repro/internal/jobs"
	"repro/internal/obs"
	"repro/internal/report"
	"repro/internal/rescache"
	"repro/internal/sim"
)

func testSpec() Spec {
	return Spec{
		Name: "t",
		Base: sim.Config{Tags: 30, Seed: 5, Rounds: 3, Algorithm: sim.AlgFSA, FrameSize: 16, Detector: sim.DetQCD, Strength: 4},
		Axes: []Axis{
			{Field: FieldCase, Cases: []Case{{Name: "I", Tags: 20, Frame: 16}, {Name: "II", Tags: 40, Frame: 16}}},
			{Field: FieldStrength, Ints: []int{4, 8}},
		},
	}
}

// mustPlan plans spec for Runner.Start.
func mustPlan(t *testing.T, spec Spec) *Plan {
	t.Helper()
	p, err := NewPlan(spec)
	if err != nil {
		t.Fatalf("NewPlan: %v", err)
	}
	return p
}

// runSweep starts a sweep on a fresh pool and waits it out.
func runSweep(t *testing.T, spec Spec, workers int, cache *rescache.Cache, r *Runner) *Sweep {
	t.Helper()
	pool := jobs.NewPool(jobs.Options{Workers: workers})
	t.Cleanup(func() { pool.Shutdown(context.Background()) })
	if r == nil {
		r = &Runner{}
	}
	r.Pool = pool
	r.Cache = cache
	r.Scratch = &sim.ScratchPool{}
	s := r.Start(context.Background(), "swp-test", mustPlan(t, spec), obs.NewBus(256))
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Wait(ctx); err != nil {
		t.Fatalf("Wait: %v", err)
	}
	return s
}

func TestSweepDeterministicAcrossPoolWorkers(t *testing.T) {
	var results [][]json.RawMessage
	for _, workers := range []int{1, 4} {
		s := runSweep(t, testSpec(), workers, nil, nil)
		snap := s.Snapshot()
		if snap.Status != jobs.StatusDone {
			t.Fatalf("workers=%d: sweep status %s, counts %+v", workers, snap.Status, snap.Counts)
		}
		cells := s.Cells("")
		out := make([]json.RawMessage, len(cells))
		for i, c := range cells {
			if c.Index != i {
				t.Fatalf("workers=%d: cell order broken at %d (index %d)", workers, i, c.Index)
			}
			if c.Status != jobs.StatusDone || len(c.Result) == 0 {
				t.Fatalf("workers=%d: cell %d status %s", workers, i, c.Status)
			}
			out[i] = c.Result
		}
		results = append(results, out)
	}
	for i := range results[0] {
		if !bytes.Equal(results[0][i], results[1][i]) {
			t.Errorf("cell %d differs between Workers=1 and Workers=4:\n%s\n%s", i, results[0][i], results[1][i])
		}
	}
}

func TestSweepCellMatchesSingleRun(t *testing.T) {
	s := runSweep(t, testSpec(), 2, nil, nil)
	cells := s.Cells(jobs.StatusDone)
	if len(cells) != 4 {
		t.Fatalf("got %d done cells, want 4", len(cells))
	}
	for _, c := range cells {
		agg, err := sim.RunContext(context.Background(), c.Config)
		if err != nil {
			t.Fatalf("single run of cell %d: %v", c.Index, err)
		}
		want, err := json.Marshal(report.NewAggregateSummary(c.Config, agg))
		if err != nil {
			t.Fatalf("encoding single run: %v", err)
		}
		if !bytes.Equal(c.Result, want) {
			t.Errorf("cell %d result diverges from the single-job encoding:\n got %s\nwant %s", c.Index, c.Result, want)
		}
	}
}

func TestSweepCacheShortCircuitAndCoalesce(t *testing.T) {
	cache := rescache.New(64)
	r := &Runner{}
	// Duplicate strength values: cells 1 and 3 canonicalise identically
	// to cells 0 and 2, so they must coalesce without touching the cache
	// counters.
	spec := testSpec()
	spec.Axes[1] = Axis{Field: FieldStrength, Ints: []int{4, 4}}
	s := runSweep(t, spec, 2, cache, r)
	snap := s.Snapshot()
	if snap.Status != jobs.StatusDone {
		t.Fatalf("sweep status %s", snap.Status)
	}
	if snap.Counts.Coalesced != 2 {
		t.Errorf("coalesced = %d, want 2", snap.Counts.Coalesced)
	}
	if snap.Counts.Cached != 0 {
		t.Errorf("first sweep cached = %d, want 0", snap.Counts.Cached)
	}
	os := cache.OriginStats("sweep")
	// Exactly one lookup per primary cell — duplicates must not double
	// count.
	if os.Hits != 0 || os.Misses != 2 {
		t.Errorf("after first sweep: origin hits=%d misses=%d, want 0/2", os.Hits, os.Misses)
	}
	for _, c := range s.Cells("") {
		if c.Status != jobs.StatusDone || len(c.Result) == 0 {
			t.Fatalf("cell %d status %s", c.Index, c.Status)
		}
	}
	dups := s.Cells("")
	if dups[1].DupOf != 0 || dups[3].DupOf != 2 {
		t.Errorf("DupOf = [%d _ %d _], want coalescing onto 0 and 2", dups[1].DupOf, dups[3].DupOf)
	}
	if !bytes.Equal(dups[1].Result, dups[0].Result) {
		t.Error("coalesced cell result differs from its primary")
	}

	// The same spec again: every primary cell is now a cache hit.
	s2 := runSweep(t, spec, 2, cache, r)
	snap2 := s2.Snapshot()
	if snap2.Counts.Cached != 2 {
		t.Errorf("second sweep cached = %d, want 2", snap2.Counts.Cached)
	}
	os = cache.OriginStats("sweep")
	if os.Hits != 2 || os.Misses != 2 {
		t.Errorf("after second sweep: origin hits=%d misses=%d, want 2/2", os.Hits, os.Misses)
	}
	if !bytes.Equal(s2.Cells("")[0].Result, s.Cells("")[0].Result) {
		t.Error("cached result differs from the computed one")
	}
	if r.cached.Load() != 2 || r.run.Load() != 2 || r.coalesced.Load() != 4 {
		t.Errorf("runner counters cached=%d run=%d coalesced=%d, want 2/2/4",
			r.cached.Load(), r.run.Load(), r.coalesced.Load())
	}
}

func TestSweepCancelLeavesNoOrphans(t *testing.T) {
	pool := jobs.NewPool(jobs.Options{Workers: 2, QueueDepth: 8})
	defer pool.Shutdown(context.Background())
	r := &Runner{Pool: pool, Scratch: &sim.ScratchPool{}}
	spec := Spec{
		Base: sim.Config{Tags: 400, Seed: 1, Rounds: 40, Algorithm: sim.AlgFSA, FrameSize: 64, Detector: sim.DetQCD},
		Axes: []Axis{{Field: FieldSeed, Range: &Range{From: 1, To: 24}}},
	}
	bus := obs.NewBus(256)
	sub := bus.Subscribe(256, 0)
	s := r.Start(context.Background(), "swp-cancel", mustPlan(t, spec), bus)
	// Cancel as soon as the first cell reports running.
	for ev := range sub.Events() {
		if ev.Type == "cell" && ev.Data["status"] == string(jobs.StatusRunning) {
			break
		}
	}
	s.Cancel()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Wait(ctx); err != nil {
		t.Fatalf("Wait after cancel: %v", err)
	}
	snap := s.Snapshot()
	if snap.Status != jobs.StatusCanceled {
		t.Errorf("sweep status %s, want canceled", snap.Status)
	}
	if !snap.Counts.Terminal() {
		t.Errorf("non-terminal counts after Wait: %+v", snap.Counts)
	}
	if snap.Counts.Canceled == 0 {
		t.Error("cancel canceled no cells")
	}
	// No orphaned cells: nothing left queued on the pool.
	if n := pool.Stats().QueueDepth; n != 0 {
		t.Errorf("pool still holds %d queued jobs", n)
	}
	// Cancel after completion stays safe.
	s.Cancel()
}

func TestSweepEventsAndMergedTable(t *testing.T) {
	bus := obs.NewBus(256)
	pool := jobs.NewPool(jobs.Options{Workers: 2})
	defer pool.Shutdown(context.Background())
	r := &Runner{Pool: pool, Scratch: &sim.ScratchPool{}}
	s := r.Start(context.Background(), "swp-ev", mustPlan(t, testSpec()), bus)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Wait(ctx); err != nil {
		t.Fatalf("Wait: %v", err)
	}
	sub := bus.Subscribe(1024, 0) // closed bus still replays the ring
	var cellDone, sweepDone int
	for ev := range sub.Events() {
		switch ev.Type {
		case "cell":
			if ev.Data["status"] == string(jobs.StatusDone) {
				cellDone++
			}
		case "sweep":
			sweepDone++
			if ev.Data["status"] != string(jobs.StatusDone) {
				t.Errorf("sweep event status %v", ev.Data["status"])
			}
		}
	}
	if cellDone != 4 {
		t.Errorf("saw %d cell-done events, want 4", cellDone)
	}
	if sweepDone != 1 {
		t.Errorf("saw %d sweep events, want 1", sweepDone)
	}

	tbl, err := s.MergedTable()
	if err != nil {
		t.Fatalf("MergedTable: %v", err)
	}
	if len(tbl.Rows) != 4 {
		t.Fatalf("merged table has %d rows, want 4", len(tbl.Rows))
	}
	wantCols := []string{"case", "strength", "slots", "throughput", "accuracy", "ur", "time_ms", "source"}
	if len(tbl.Columns) != len(wantCols) {
		t.Fatalf("merged table columns %v", tbl.Columns)
	}
	for i, c := range wantCols {
		if tbl.Columns[i] != c {
			t.Fatalf("merged table columns %v, want %v", tbl.Columns, wantCols)
		}
	}
	csv := tbl.CSV()
	if lines := strings.Count(csv, "\n"); lines != 5 {
		t.Errorf("merged CSV has %d lines, want 5:\n%s", lines, csv)
	}
	if !strings.Contains(csv, "run") {
		t.Errorf("merged CSV lacks provenance:\n%s", csv)
	}
	if out := tbl.Render(); !strings.Contains(out, "strength") {
		t.Errorf("merged render lacks axis column:\n%s", out)
	}
}

func TestSweepStatusFilter(t *testing.T) {
	s := runSweep(t, testSpec(), 2, nil, nil)
	if got := len(s.Cells(jobs.StatusDone)); got != 4 {
		t.Errorf("done filter returned %d cells, want 4", got)
	}
	if got := len(s.Cells(jobs.StatusFailed)); got != 0 {
		t.Errorf("failed filter returned %d cells, want 0", got)
	}
}
