package sim

import (
	"context"
	"math"
	"reflect"
	"testing"

	"repro/internal/obs"
	"repro/internal/obs/audit"
)

// audited returns a fresh auditor and a context that hands it to runs.
func audited(o audit.Options) (*audit.Auditor, context.Context) {
	a := audit.New(obs.NewRegistry(), o)
	return a, audit.WithAuditor(context.Background(), a)
}

// TestAuditThreeSigmaQCD is the acceptance check for the shadow oracle:
// over a seeded FSA run with QCD at l=4, the measured number of false
// singles must sit within 3σ of the analytic expectation Σ 2^-(l·(m-1))
// accumulated slot-by-slot (QCD Theorem 1). A detector drifting from
// the paper's model — or an auditor mis-accounting it — fails this.
func TestAuditThreeSigmaQCD(t *testing.T) {
	a, ctx := audited(audit.Options{ExemplarCap: 16})
	c := Config{
		Tags: 200, Seed: 42, Rounds: 80,
		Algorithm: AlgFSA, FrameSize: 64,
		Detector: DetQCD, Strength: 4,
	}
	if _, err := RunContext(ctx, c); err != nil {
		t.Fatal(err)
	}
	rep := a.Report()
	if len(rep.Detectors) != 1 {
		t.Fatalf("detectors = %+v, want just qcd/4", rep.Detectors)
	}
	d := rep.Detectors[0]
	if d.Detector != "QCD-4" || d.Strength != 4 {
		t.Fatalf("audited %q/%d, want QCD-4/4", d.Detector, d.Strength)
	}
	if d.TrueCollided == 0 || d.ExpectedStdDev == 0 {
		t.Fatalf("no collisions audited: %+v", d)
	}
	// With l=4 a two-tag collision is missed with p=1/16: this run must
	// actually exercise misses, not vacuously pass on zeros.
	if d.FalseSingle == 0 {
		t.Fatalf("no false singles at l=4 over %d collided slots", d.TrueCollided)
	}
	diff := math.Abs(float64(d.FalseSingle) - d.ExpectedFalseSingles)
	if diff > 3*d.ExpectedStdDev {
		t.Errorf("false singles %d vs expected %.1f: |Δ|=%.1f exceeds 3σ=%.1f",
			d.FalseSingle, d.ExpectedFalseSingles, diff, 3*d.ExpectedStdDev)
	}
	// QCD never invents collisions or idles: it only ever misses them.
	if d.FalseCollision != 0 || d.FalseIdle != 0 {
		t.Errorf("impossible cells populated: %+v", d)
	}
	if len(rep.Exemplars) == 0 {
		t.Error("misses occurred but no exemplars captured")
	}
	for _, ex := range rep.Exemplars {
		if ex.Truth != "collided" || ex.Declared != "single" {
			t.Errorf("exemplar is not a false single: %+v", ex)
		}
		if ex.Responders < 2 {
			t.Errorf("false single with %d responders", ex.Responders)
		}
	}
}

// TestAuditDoesNotPerturbResults pins the observe-only contract: the
// audit wrapper draws nothing from any PRNG, so an audited run is
// bit-identical to an unaudited one.
func TestAuditDoesNotPerturbResults(t *testing.T) {
	c := baseCfg()
	c.Rounds = 6
	plain, err := Run(c)
	if err != nil {
		t.Fatal(err)
	}
	_, ctx := audited(audit.Options{})
	shadowed, err := RunContext(ctx, c)
	if err != nil {
		t.Fatal(err)
	}
	if plain.Slots.Mean() != shadowed.Slots.Mean() ||
		plain.TimeMicros.Mean() != shadowed.TimeMicros.Mean() ||
		plain.Delay.Mean() != shadowed.Delay.Mean() ||
		plain.Collided.Mean() != shadowed.Collided.Mean() {
		t.Error("enabling the audit changed simulation results")
	}
}

// TestAuditOracleDetectorIsAllCorrect audits the oracle against itself:
// every verdict must land in the correct cell.
func TestAuditOracleDetectorIsAllCorrect(t *testing.T) {
	a, ctx := audited(audit.Options{})
	c := baseCfg()
	c.Detector = DetOracle
	c.Strength = 0
	if _, err := RunContext(ctx, c); err != nil {
		t.Fatal(err)
	}
	d := a.Report().Detectors[0]
	if d.FalseSingle != 0 || d.FalseCollision != 0 || d.FalseIdle != 0 {
		t.Errorf("oracle misclassified: %+v", d)
	}
	if d.Correct == 0 {
		t.Error("nothing audited")
	}
}

// TestRunContextPublishesTelemetry wires a bus through RunContext and
// checks the stream: one "round" event per round plus per-frame "frame"
// events carrying the frame accounting.
func TestRunContextPublishesTelemetry(t *testing.T) {
	bus := obs.NewBus(4096)
	sub := bus.Subscribe(4096, 0)
	c := baseCfg()
	c.Rounds = 3
	if _, err := RunContext(obs.WithBus(context.Background(), bus), c); err != nil {
		t.Fatal(err)
	}
	bus.Close()

	rounds, frames := 0, 0
	seen := make(map[int]bool)
	for ev := range sub.Events() {
		switch ev.Type {
		case "round":
			rounds++
			r, ok := ev.Data["round"].(int)
			if !ok || seen[r] {
				t.Errorf("bad or duplicate round event: %v", ev.Data)
			}
			seen[r] = true
			if ev.Data["rounds"] != 3 {
				t.Errorf("round event missing total: %v", ev.Data)
			}
			if s, ok := ev.Data["slots"].(int64); !ok || s <= 0 {
				t.Errorf("round event slots = %v", ev.Data["slots"])
			}
		case "frame":
			frames++
			if sz, ok := ev.Data["size"].(int); !ok || sz <= 0 {
				t.Errorf("frame event size = %v", ev.Data["size"])
			}
		default:
			t.Errorf("unexpected event type %q", ev.Type)
		}
	}
	if rounds != 3 {
		t.Errorf("round events = %d, want 3", rounds)
	}
	if frames < 3 {
		t.Errorf("frame events = %d, want at least one per round", frames)
	}
	if bus.Dropped() != 0 {
		t.Errorf("events dropped during test: %d", bus.Dropped())
	}
}

// TestAuditEventsOnBus runs audited with a bus: every false single
// surfaces as an "audit" event with slot coordinates.
func TestAuditEventsOnBus(t *testing.T) {
	a, ctx := audited(audit.Options{})
	bus := obs.NewBus(8192)
	sub := bus.Subscribe(8192, 0)
	c := Config{
		Tags: 200, Seed: 7, Rounds: 20,
		Algorithm: AlgFSA, FrameSize: 64,
		Detector: DetQCD, Strength: 4,
	}
	if _, err := RunContext(obs.WithBus(ctx, bus), c); err != nil {
		t.Fatal(err)
	}
	bus.Close()

	hits := 0
	for ev := range sub.Events() {
		if ev.Type != "audit" {
			continue
		}
		hits++
		if ev.Data["detector"] != "QCD-4" || ev.Data["declared"] != "single" {
			t.Errorf("audit event = %v", ev.Data)
		}
	}
	if want := a.Report().Detectors[0].FalseSingle; uint64(hits) != want {
		t.Errorf("audit events = %d, confusion matrix counted %d", hits, want)
	}
	if hits == 0 {
		t.Error("no audit hits at l=4 (test has no power)")
	}
}

// TestAuditReportReproduces pins that one run's audit report does not
// depend on how its rounds were scheduled: exemplars (here enough to
// wrap the ring) and the expected false-single sums are folded in round
// order, so the report is the same at 1, 2 and 4 workers and on every
// repeat.
func TestAuditReportReproduces(t *testing.T) {
	c := Config{
		Tags: 200, Seed: 42, Rounds: 20,
		Algorithm: AlgFSA, FrameSize: 120,
		Detector: DetQCD, Strength: 4,
	}
	var want audit.Report
	for _, workers := range []int{1, 2, 4, 2, 4, 4} {
		a, ctx := audited(audit.Options{ExemplarCap: 16})
		c.Workers = workers
		if _, err := RunContext(ctx, c); err != nil {
			t.Fatal(err)
		}
		got := a.Report()
		if workers == 1 {
			if got.ExemplarsDropped == 0 {
				t.Fatalf("the exemplar ring never wrapped: %d kept", len(got.Exemplars))
			}
			want = got
			continue
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("report at %d workers differs from 1 worker:\n%+v\n%+v", workers, got, want)
		}
	}
}
