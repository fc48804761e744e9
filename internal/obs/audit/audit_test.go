package audit

import (
	"encoding/json"
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"

	"repro/internal/bitstr"
	"repro/internal/obs"
	"repro/internal/signal"
)

func rxOf(m int) signal.Reception {
	return signal.Reception{Energy: m > 0, Responders: m}
}

func TestObserveFillsConfusionMatrix(t *testing.T) {
	a := New(obs.NewRegistry(), Options{})
	rec := a.Recorder("qcd", 4, 0, nil)

	rec.Observe(signal.Single, signal.Single, rxOf(1))     // correct
	rec.Observe(signal.Collided, signal.Collided, rxOf(2)) // correct
	rec.Observe(signal.Collided, signal.Single, rxOf(2))   // false single
	rec.Observe(signal.Single, signal.Collided, rxOf(1))   // false collision
	rec.Observe(signal.Single, signal.Idle, rxOf(1))       // false idle
	rec.Flush()

	rep := a.Report()
	if len(rep.Detectors) != 1 {
		t.Fatalf("detectors = %d, want 1", len(rep.Detectors))
	}
	d := rep.Detectors[0]
	if d.Detector != "qcd" || d.Strength != 4 {
		t.Errorf("identity = %q/%d", d.Detector, d.Strength)
	}
	if d.Correct != 2 || d.FalseSingle != 1 || d.FalseCollision != 1 || d.FalseIdle != 1 {
		t.Errorf("matrix = %+v", d)
	}
	if d.TrueCollided != 2 {
		t.Errorf("true collided = %d, want 2", d.TrueCollided)
	}
	if d.FalseSingleRate != 0.5 {
		t.Errorf("false-single rate = %g, want 0.5", d.FalseSingleRate)
	}
	if len(rep.Exemplars) != 3 {
		t.Errorf("exemplars = %d, want 3 (one per misclassification)", len(rep.Exemplars))
	}
}

func TestExpectedFalseSingleAccounting(t *testing.T) {
	a := New(obs.NewRegistry(), Options{})
	rec := a.Recorder("qcd", 4, 0, nil)

	// Two collided slots: m=2 contributes p=2^-4, m=3 contributes 2^-8.
	rec.Observe(signal.Collided, signal.Collided, rxOf(2))
	rec.Observe(signal.Collided, signal.Collided, rxOf(3))
	// A single slot must not contribute.
	rec.Observe(signal.Single, signal.Single, rxOf(1))
	rec.Flush()

	d := a.Report().Detectors[0]
	p2, p3 := math.Pow(2, -4), math.Pow(2, -8)
	wantE := p2 + p3
	wantSD := math.Sqrt(p2*(1-p2) + p3*(1-p3))
	if math.Abs(d.ExpectedFalseSingles-wantE) > 1e-12 {
		t.Errorf("expected false singles = %g, want %g", d.ExpectedFalseSingles, wantE)
	}
	if math.Abs(d.ExpectedStdDev-wantSD) > 1e-12 {
		t.Errorf("expected stddev = %g, want %g", d.ExpectedStdDev, wantSD)
	}
	if math.Abs(d.ExpectedFalseSingleRate-wantE/2) > 1e-12 {
		t.Errorf("expected rate = %g, want %g", d.ExpectedFalseSingleRate, wantE/2)
	}
}

func TestStrengthZeroSkipsExpectedModel(t *testing.T) {
	a := New(obs.NewRegistry(), Options{})
	rec := a.Recorder("gen2", 0, 0, nil)
	rec.Observe(signal.Collided, signal.Single, rxOf(2))
	d := a.Report().Detectors[0]
	if d.ExpectedFalseSingles != 0 || d.ExpectedStdDev != 0 {
		t.Errorf("strength-0 detector accumulated an analytic model: %+v", d)
	}
	if d.FalseSingle != 1 {
		t.Errorf("false single = %d, want 1", d.FalseSingle)
	}
}

func TestExemplarCapturesQCDPreamble(t *testing.T) {
	a := New(obs.NewRegistry(), Options{})
	rec := a.Recorder("qcd", 4, 2, nil)
	rec.EndFrame() // frame 1
	rec.Observe(signal.Single, signal.Single, rxOf(1))

	// A missed QCD collision: both tags drew r=0b0101, so the
	// overlapped preamble is r‖r̄ and indistinguishable from one tag.
	pre := bitstr.FromUint64(0b0101_1010, 8)
	rec.Observe(signal.Collided, signal.Single, signal.Reception{
		Signal: pre, Energy: true, Responders: 2,
	})
	rec.Flush()

	rep := a.Report()
	if len(rep.Exemplars) != 1 {
		t.Fatalf("exemplars = %d, want 1", len(rep.Exemplars))
	}
	ex := rep.Exemplars[0]
	if ex.Round != 2 || ex.Frame != 1 || ex.Slot != 1 {
		t.Errorf("coordinates = round %d frame %d slot %d, want 2/1/1", ex.Round, ex.Frame, ex.Slot)
	}
	if ex.Truth != "collided" || ex.Declared != "single" || ex.Responders != 2 {
		t.Errorf("verdict = %+v", ex)
	}
	if want := pre.Uint64Range(0, 4); ex.R != want {
		t.Errorf("extracted r = %d, want %d", ex.R, want)
	}
	if ex.Preamble != pre.String() {
		t.Errorf("preamble = %q, want %q", ex.Preamble, pre.String())
	}
	if b, err := json.Marshal(ex); err != nil || !strings.Contains(string(b), `"truth":"collided"`) {
		t.Errorf("exemplar JSON = %s (%v)", b, err)
	}
}

func TestExemplarRingBoundsAndDrops(t *testing.T) {
	a := New(obs.NewRegistry(), Options{ExemplarCap: 4})
	rec := a.Recorder("gen2", 0, 0, nil)
	for i := 0; i < 10; i++ {
		rec.Observe(signal.Collided, signal.Single, rxOf(2))
	}
	rec.Flush()
	rep := a.Report()
	if len(rep.Exemplars) != 4 {
		t.Fatalf("ring holds %d, want cap 4", len(rep.Exemplars))
	}
	if rep.ExemplarsDropped != 6 {
		t.Errorf("dropped = %d, want 6", rep.ExemplarsDropped)
	}
	// Oldest-first: slots 6..9 survive out of 0..9.
	for i, ex := range rep.Exemplars {
		if ex.Slot != 6+i {
			t.Errorf("exemplar %d has slot %d, want %d (oldest-first)", i, ex.Slot, 6+i)
		}
	}
}

func TestReportSortsDetectors(t *testing.T) {
	a := New(obs.NewRegistry(), Options{})
	a.Recorder("qcd", 8, 0, nil).Observe(signal.Idle, signal.Idle, rxOf(0))
	a.Recorder("gen2", 0, 0, nil).Observe(signal.Idle, signal.Idle, rxOf(0))
	a.Recorder("qcd", 4, 0, nil).Observe(signal.Idle, signal.Idle, rxOf(0))
	rep := a.Report()
	got := ""
	for _, d := range rep.Detectors {
		got += fmt.Sprintf("%s/%d ", d.Detector, d.Strength)
	}
	if got != "gen2/0 qcd/4 qcd/8 " {
		t.Errorf("order = %q", got)
	}
}

func TestObservePublishesAuditEvents(t *testing.T) {
	bus := obs.NewBus(16)
	a := New(obs.NewRegistry(), Options{})
	rec := a.Recorder("qcd", 4, 0, bus)
	rec.Observe(signal.Single, signal.Single, rxOf(1)) // correct: no event
	rec.Observe(signal.Collided, signal.Single, rxOf(3))
	sub := bus.Subscribe(4, 0)
	bus.Close()
	var evs []obs.StreamEvent
	for ev := range sub.Events() {
		evs = append(evs, ev)
	}
	if len(evs) != 1 || evs[0].Type != "audit" {
		t.Fatalf("events = %+v, want one audit event", evs)
	}
	if evs[0].Data["declared"] != "single" || evs[0].Data["responders"] != 3 {
		t.Errorf("payload = %v", evs[0].Data)
	}
}

func TestAuditorExposesMetrics(t *testing.T) {
	reg := obs.NewRegistry()
	a := New(reg, Options{})
	rec := a.Recorder("qcd", 4, 0, nil)
	rec.Observe(signal.Collided, signal.Single, rxOf(2))
	rec.Observe(signal.Collided, signal.Collided, rxOf(2))

	var sb strings.Builder
	reg.WritePrometheus(&sb)
	got := sb.String()
	for _, want := range []string{
		`sim_audit_verdicts_total{detector="qcd",l="4",cell="false_single"} 1`,
		`sim_audit_verdicts_total{detector="qcd",l="4",cell="correct"} 1`,
		`sim_audit_false_single_rate{detector="qcd",l="4"} 0.5`,
	} {
		if !strings.Contains(got, want) {
			t.Errorf("exposition missing %q:\n%s", want, got)
		}
	}
	if errs := obs.LintPrometheus(got); len(errs) != 0 {
		t.Errorf("audit exposition fails lint: %v", errs)
	}
}

func TestNilAuditorIsSafe(t *testing.T) {
	var a *Auditor
	if a.Enabled() {
		t.Error("nil auditor reports enabled")
	}
	if rec := a.Recorder("qcd", 4, 0, nil); rec != nil {
		t.Error("nil auditor handed out a recorder")
	}
	rep := a.Report()
	if len(rep.Detectors) != 0 || len(rep.Exemplars) != 0 {
		t.Errorf("nil report = %+v", rep)
	}
}

// TestConcurrentRecorders exercises parallel rounds feeding one auditor
// under the race detector.
func TestConcurrentRecorders(t *testing.T) {
	a := New(obs.NewRegistry(), Options{ExemplarCap: 8})
	var wg sync.WaitGroup
	for round := 0; round < 8; round++ {
		wg.Add(1)
		go func(round int) {
			defer wg.Done()
			rec := a.Recorder("qcd", 4, round, nil)
			for i := 0; i < 50; i++ {
				rec.Observe(signal.Collided, signal.Collided, rxOf(2))
				rec.Observe(signal.Collided, signal.Single, rxOf(2))
			}
		}(round)
	}
	wg.Wait()
	d := a.Report().Detectors[0]
	if d.Correct != 400 || d.FalseSingle != 400 || d.TrueCollided != 800 {
		t.Errorf("totals = %+v", d)
	}
}
