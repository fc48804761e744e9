package rfid_test

// Guards the observability layer's disabled-path cost: with no registry
// installed and no tracer in context, sim.RunRound must run exactly as
// the uninstrumented seed did — one atomic pointer load, zero extra
// allocations. BenchmarkRunRoundInstrumented measures the opt-in cost
// for comparison (run with -bench 'RunRound' -benchmem).

import (
	"testing"

	"repro/internal/obs"
	"repro/internal/obs/audit"
	"repro/internal/sim"
)

func benchRoundCfg() sim.Config {
	return sim.Config{
		Tags: 100, Seed: 1, Rounds: 1,
		Algorithm: sim.AlgFSA, FrameSize: 60,
		Detector: sim.DetQCD, Strength: 8,
	}
}

func BenchmarkRunRoundUninstrumented(b *testing.B) {
	sim.Uninstrument()
	c := benchRoundCfg()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := sim.RunRound(c, uint64(i)+1); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRunRoundInstrumented(b *testing.B) {
	sim.Instrument(obs.NewRegistry())
	defer sim.Uninstrument()
	c := benchRoundCfg()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := sim.RunRound(c, uint64(i)+1); err != nil {
			b.Fatal(err)
		}
	}
}

// TestDisabledInstrumentationAddsNoAllocations is the hard guard: the
// per-round allocation count with observability disabled must match a
// baseline measured the same way, so the dormant path cannot regress
// silently. Session construction itself allocates (census, delays), so
// the assertion is equality between two disabled runs spanning the
// Instrument/Uninstrument toggle, not zero.
func TestDisabledInstrumentationAddsNoAllocations(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation measurement in -short mode")
	}
	c := benchRoundCfg()
	measure := func() float64 {
		return testing.AllocsPerRun(20, func() {
			if _, err := sim.RunRound(c, 1); err != nil {
				t.Fatal(err)
			}
		})
	}
	sim.Uninstrument()
	before := measure()
	// Toggle instrumentation on and off; the disabled path afterwards
	// must cost exactly what it did before.
	sim.Instrument(obs.NewRegistry())
	sim.Uninstrument()
	after := measure()
	if before != after {
		t.Errorf("disabled-path allocations changed: %v before, %v after toggling instrumentation", before, after)
	}
	// The same equality must hold across the audit toggle: a disabled
	// auditor is one atomic pointer load per round, nothing per slot.
	sim.InstrumentAudit(audit.New(obs.NewRegistry(), audit.Options{}))
	sim.UninstrumentAudit()
	afterAudit := measure()
	if before != afterAudit {
		t.Errorf("disabled-path allocations changed: %v before, %v after toggling auditing", before, afterAudit)
	}
}

// TestInstrumentedRoundAllocatesLikePlainRound guards the enabled
// metrics path: an instrumented round runs the same slot path as a
// plain one and only folds the finished session into counters, so it
// must allocate exactly as many objects per round. A wrapper around the
// detector would box it once per round and hide it from air's word
// kernel.
func TestInstrumentedRoundAllocatesLikePlainRound(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation measurement in -short mode")
	}
	c := benchRoundCfg()
	measure := func() float64 {
		return testing.AllocsPerRun(20, func() {
			if _, err := sim.RunRound(c, 1); err != nil {
				t.Fatal(err)
			}
		})
	}
	sim.Uninstrument()
	plain := measure()
	sim.Instrument(obs.NewRegistry())
	defer sim.Uninstrument()
	if instrumented := measure(); instrumented != plain {
		t.Errorf("instrumented round allocates %v objects, plain round %v", instrumented, plain)
	}
}

// BenchmarkRunRoundAudited measures the opt-in cost of shadow-oracle
// auditing (run with -bench 'RunRound' -benchmem to compare all three).
func BenchmarkRunRoundAudited(b *testing.B) {
	sim.InstrumentAudit(audit.New(obs.NewRegistry(), audit.Options{}))
	defer sim.UninstrumentAudit()
	c := benchRoundCfg()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := sim.RunRound(c, uint64(i)+1); err != nil {
			b.Fatal(err)
		}
	}
}
