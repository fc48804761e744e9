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
	ctx := WithMetrics(context.Background(), NewMetrics(reg))

	c := baseCfg()
	agg, err := RunContext(ctx, c)
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
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q:\n%s", want, text)
		}
	}
	// The three census series account for every slot of the run (1440
	// for baseCfg).
	var slots uint64
	for _, line := range strings.Split(text, "\n") {
		if !strings.HasPrefix(line, "sim_slots_total{") {
			continue
		}
		f := strings.Fields(line)
		v, err := strconv.ParseUint(f[len(f)-1], 10, 64)
		if err != nil {
			t.Fatalf("sim_slots_total sample %q: %v", line, err)
		}
		slots += v
	}
	if want := uint64(agg.Slots.Mean() * float64(c.Rounds)); slots != want {
		t.Errorf("sim_slots_total sums to %d, want the run's %d slots", slots, want)
	}
	// The series observe sessions, never individual verdicts.
	if strings.Contains(text, "sim_detector_classify_seconds") {
		t.Errorf("exposition still carries the per-verdict latency histogram:\n%s", text)
	}
}

// TestRunsRecordOnlyIntoTheirOwnMetrics: a run folds its rounds into
// the series its context carries and nowhere else, and a run without
// series records nothing.
func TestRunsRecordOnlyIntoTheirOwnMetrics(t *testing.T) {
	a, b := NewMetrics(obs.NewRegistry()), NewMetrics(obs.NewRegistry())
	c := baseCfg()
	if _, err := RunContext(WithMetrics(context.Background(), a), c); err != nil {
		t.Fatal(err)
	}
	if _, err := Run(c); err != nil {
		t.Fatal(err)
	}
	c.Rounds = 2
	if _, err := RunContext(WithMetrics(context.Background(), b), c); err != nil {
		t.Fatal(err)
	}
	if got, want := a.rounds.Value(), uint64(baseCfg().Rounds); got != want {
		t.Errorf("first series counted %d rounds, want its own run's %d", got, want)
	}
	if got := b.rounds.Value(); got != 2 {
		t.Errorf("second series counted %d rounds, want its own run's 2", got)
	}
}

// TestRunContextEmitsSpans routes a span context in via context and
// checks the run recorded one experiment span under it, one round span
// per round under the experiment, and frame spans under the rounds.
func TestRunContextEmitsSpans(t *testing.T) {
	store := obs.NewTraceStore(1, 4096)
	root := store.StartTrace("t").Start("jobs", "run")
	c := baseCfg()
	if _, err := RunContext(obs.WithSpan(context.Background(), root.Context()), c); err != nil {
		t.Fatal(err)
	}
	root.End()
	spans := store.Spans("t")
	byID := map[uint64]obs.SpanRec{}
	counts := map[string]int{}
	for _, sp := range spans {
		byID[sp.ID] = sp
		counts[sp.Name]++
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
	want := map[string]string{"experiment": "run", "round": "experiment", "frame": "round"}
	for _, sp := range spans {
		if p, ok := want[sp.Name]; ok && byID[sp.Parent].Name != p {
			t.Errorf("%s span %d has parent %q, want %q", sp.Name, sp.ID, byID[sp.Parent].Name, p)
		}
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
