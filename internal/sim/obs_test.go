package sim

import (
	"context"
	"errors"
	"strconv"
	"strings"
	"testing"

	"repro/internal/obs"
)

func TestInstrumentRecordsSeries(t *testing.T) {
	reg := obs.NewRegistry()
	Instrument(reg)
	t.Cleanup(Uninstrument)

	c := baseCfg()
	agg, err := Run(c)
	if err != nil {
		t.Fatal(err)
	}

	var sb strings.Builder
	reg.WritePrometheus(&sb)
	text := sb.String()
	for _, want := range []string{
		"sim_rounds_total 4",
		"sim_tags_identified_total 400",
		`sim_slots_total{type="idle"}`,
		`sim_slots_total{type="single"} 400`,
		`sim_slots_total{type="collided"}`,
		"sim_frames_total",
		"sim_detector_classify_seconds_count",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q:\n%s", want, text)
		}
	}
	// The detector latency histogram saw one verdict per slot.
	wantVerdicts := uint64(agg.Slots.Mean() * float64(c.Rounds))
	line := "sim_detector_classify_seconds_count " + strconv.FormatUint(wantVerdicts, 10)
	if !strings.Contains(text, line) {
		t.Errorf("exposition missing %q (one verdict per slot):\n%s", line, text)
	}
}

func TestUninstrumentStopsRecording(t *testing.T) {
	reg := obs.NewRegistry()
	Instrument(reg)
	Uninstrument()
	if _, err := Run(baseCfg()); err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	reg.WritePrometheus(&sb)
	if !strings.Contains(sb.String(), "sim_rounds_total 0") {
		t.Errorf("rounds recorded after Uninstrument:\n%s", sb.String())
	}
}

// TestRunContextEmitsSpans routes a tracer in via context and checks the
// run produced an experiment span, one round span per round, and frame
// spans from the FSA frame hook.
func TestRunContextEmitsSpans(t *testing.T) {
	tr := obs.NewTracer(4096)
	ctx := obs.WithTracer(context.Background(), tr)
	c := baseCfg()
	if _, err := RunContext(ctx, c); err != nil {
		t.Fatal(err)
	}
	counts := map[string]int{}
	for _, ev := range tr.Events() {
		counts[ev.Name]++
	}
	if counts["experiment"] != 1 {
		t.Errorf("experiment spans = %d, want 1", counts["experiment"])
	}
	if counts["round"] != c.Rounds {
		t.Errorf("round spans = %d, want %d", counts["round"], c.Rounds)
	}
	if counts["frame"] == 0 {
		t.Error("no frame spans emitted")
	}
}

// TestRunContextPartialAggregate aborts a long experiment and checks the
// partial aggregate still comes back alongside the context error, with
// Completed reflecting only the rounds that finished. It cancels on the
// first "round" event, so at least one round has been folded however
// slow the machine is.
func TestRunContextPartialAggregate(t *testing.T) {
	c := baseCfg()
	c.Rounds = 100000
	c.Workers = 1
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	bus := obs.NewBus(1)
	defer bus.Close()
	// Room for thousands of rounds of frame events, so the subscriber
	// is not dropped before it is first scheduled.
	sub := bus.Subscribe(1<<16, 0)
	go func() {
		// Cancel on the first round, or when the subscription ends
		// without one (dropped after all), which is just as partial.
		defer cancel()
		for ev := range sub.Events() {
			if ev.Type == "round" {
				return
			}
		}
	}()
	agg, err := RunContext(obs.WithBus(ctx, bus), c)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context canceled", err)
	}
	if agg == nil {
		t.Fatal("no partial aggregate returned")
	}
	if agg.Completed <= 0 || agg.Completed >= c.Rounds {
		t.Fatalf("Completed = %d, want in (0, %d)", agg.Completed, c.Rounds)
	}
	if agg.Slots.N() != int64(agg.Completed) {
		t.Errorf("aggregate folded %d rounds but Completed = %d", agg.Slots.N(), agg.Completed)
	}
	if agg.Single.Mean() != float64(c.Tags) {
		t.Errorf("partial rounds are whole rounds: mean singles = %v, want %v", agg.Single.Mean(), c.Tags)
	}
}

// TestCompletedOnFullRun pins Completed == Rounds for an unaborted run.
func TestCompletedOnFullRun(t *testing.T) {
	c := baseCfg()
	agg, err := RunContext(context.Background(), c)
	if err != nil {
		t.Fatal(err)
	}
	if agg.Completed != c.Rounds {
		t.Errorf("Completed = %d, want %d", agg.Completed, c.Rounds)
	}
}
