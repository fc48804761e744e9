package scenario

import (
	"context"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"repro/internal/sim"
)

// smallSpec is a dense little arena that still exercises every moving
// part: multiple colour classes, overlapping coverage, tag churn.
func smallSpec() Spec {
	return Spec{
		Name:                     "test",
		SideMetres:               24,
		Readers:                  16,
		ReadRangeMetres:          5,
		InterferenceRadiusMetres: 9,
		ArrivalsPerSecond:        4000,
		DwellMicros:              150_000,
		DurationMicros:           1_000_000,
		SessionMicros:            2000,
		Seed:                     7,
	}
}

func TestRunProducesReads(t *testing.T) {
	res, err := Run(smallSpec())
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.Arrived == 0 || res.Covered == 0 {
		t.Fatalf("no flow: %+v", res)
	}
	if res.Read == 0 {
		t.Fatalf("no tag was ever read: %+v", res)
	}
	if res.Read+res.Missed != res.Covered {
		t.Fatalf("covered tags unaccounted for: read %d + missed %d != covered %d",
			res.Read, res.Missed, res.Covered)
	}
	if res.Covered > res.Arrived {
		t.Fatalf("covered %d exceeds arrived %d", res.Covered, res.Arrived)
	}
	if res.Latency.N() != res.Read {
		t.Fatalf("latency folded %d times for %d reads", res.Latency.N(), res.Read)
	}
	if res.LatencyMeanMicros <= 0 {
		t.Fatalf("non-positive mean latency %v", res.LatencyMeanMicros)
	}
	if res.Census.Single < res.Read {
		t.Fatalf("census singles %d below read count %d", res.Census.Single, res.Read)
	}
	if res.Colors < 2 {
		t.Fatalf("expected a multi-colour schedule, got %d", res.Colors)
	}
}

// TestRunDeterministicAcrossWorkers is the engine's core contract: the
// worker count schedules goroutines and nothing else, so every tally —
// census, reads, latency moments — is bit-identical for any value. The
// counts cover every stage split: 1 runs both stages inline, 2 moves the
// arrivals to their own goroutine, and 3 is the first to fan sessions.
func TestRunDeterministicAcrossWorkers(t *testing.T) {
	var pool sim.ScratchPool
	var base *Result
	for _, workers := range []int{1, 2, 3, 4, runtime.GOMAXPROCS(0)} {
		spec := smallSpec()
		spec.Workers = workers
		res, err := RunContext(context.Background(), spec, Options{Scratch: &pool})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		res.Spec.Workers = 0 // the only field allowed to differ
		if base == nil {
			base = res
			continue
		}
		if !reflect.DeepEqual(base, res) {
			t.Fatalf("workers=%d diverged:\n  base %+v\n  got  %+v", workers, base, res)
		}
	}
}

func TestRunProgressSeries(t *testing.T) {
	spec := smallSpec()
	spec.EpochsPerProgress = 2
	var seen []Progress
	_, err := RunContext(context.Background(), spec, Options{
		OnEpoch: func(p Progress) { seen = append(seen, p) },
	})
	if err != nil {
		t.Fatalf("RunContext: %v", err)
	}
	if len(seen) == 0 {
		t.Fatal("no progress events")
	}
	var total int64
	for i, p := range seen {
		if i > 0 && p.Epoch <= seen[i-1].Epoch {
			t.Fatalf("epochs not increasing: %+v", seen)
		}
		total += p.EpochReads
	}
	last := seen[len(seen)-1]
	if total != last.Read {
		t.Fatalf("interval reads sum %d != cumulative %d", total, last.Read)
	}
	if last.MissRate < 0 || last.MissRate > 1 {
		t.Fatalf("miss rate %v out of range", last.MissRate)
	}
}

func TestRunContextCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	spec := smallSpec()
	spec.DurationMicros = 1e12 // would run ~forever
	n := 0
	res, err := RunContext(ctx, spec, Options{
		OnEpoch: func(Progress) {
			n++
			if n == 3 {
				cancel()
			}
		},
	})
	if err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res == nil || res.Epochs < 3 {
		t.Fatalf("expected a partial result with >= 3 epochs, got %+v", res)
	}
}

func TestValidate(t *testing.T) {
	if err := (Spec{ArrivalsPerSecond: 100, DwellMicros: 1000, DurationMicros: 1000}).Validate(); err != nil {
		t.Fatalf("minimal spec should validate: %v", err)
	}
	bad := []Spec{
		{},                       // no flow at all
		{ArrivalsPerSecond: 100}, // no dwell/duration
		{ArrivalsPerSecond: 100, DwellMicros: 1000, DurationMicros: 1000, Readers: 7},
		{ArrivalsPerSecond: 100, DwellMicros: 1000, DurationMicros: 1000, Strength: 99},
		{ArrivalsPerSecond: -1, DwellMicros: 1000, DurationMicros: 1000},
		{ArrivalsPerSecond: 100, DwellMicros: 1000, DurationMicros: 1000, IDBits: -5},
		{ArrivalsPerSecond: 100, DwellMicros: 1000, DurationMicros: 1000, IDBits: 497},
	}
	for i, s := range bad {
		if err := s.Validate(); err == nil {
			t.Errorf("case %d: expected a validation error", i)
		}
	}
}

// TestValidateRejectsHugeCoverGrid: a spec whose coverage grid,
// ceil(side/range)² cells, is over MaxCoverCells fails Validate with an
// error naming the ceiling instead of asking the engine for the memory
// (at 1e12 m over 1e-3 m the allocation panicked). Table V's defaults
// and a grid right at the ceiling still validate.
func TestValidateRejectsHugeCoverGrid(t *testing.T) {
	ceiling := strconv.Itoa(MaxCoverCells) + "-cell ceiling"
	for _, geom := range [][2]float64{{1e12, 1e-3}, {1e5, 3}, {1025, 1}} {
		spec := smallSpec()
		spec.SideMetres, spec.ReadRangeMetres = geom[0], geom[1]
		err := spec.Validate()
		if err == nil || !strings.Contains(err.Error(), ceiling) {
			t.Errorf("side %v, range %v: Validate = %v, want the %s", geom[0], geom[1], err, ceiling)
		}
	}
	edge := smallSpec()
	edge.SideMetres, edge.ReadRangeMetres = 1024, 1
	if err := edge.Validate(); err != nil {
		t.Errorf("a 1024² grid is at the ceiling: %v", err)
	}
	if err := (Spec{ArrivalsPerSecond: 100, DwellMicros: 1000, DurationMicros: 1000}).Validate(); err != nil {
		t.Errorf("Table V geometry: %v", err)
	}
}

// TestZeroDwellTags: tags that leave the instant they arrive must flow
// through admission, scheduling and departure without ever counting as
// read (their read window is empty).
func TestZeroDwellTags(t *testing.T) {
	spec := smallSpec()
	spec.ExponentialDwell = true
	spec.DwellMicros = 1 // μs-scale dwells, far below one slot
	res, err := Run(spec)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.Read != 0 {
		t.Fatalf("read %d tags whose dwell is below a slot time", res.Read)
	}
	if res.Covered == 0 || res.Missed != res.Covered {
		t.Fatalf("every covered tag should be missed: %+v", res)
	}
}
