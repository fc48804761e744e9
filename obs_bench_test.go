package rfid_test

// Guards the observability layer's cost. A run's observers arrive on
// its context; with none attached, a round must run exactly as a plain
// one — zero extra allocations. BenchmarkRunRoundInstrumented and
// BenchmarkRunRoundAudited measure the opt-in costs for comparison
// (run with -bench 'RunRound' -benchmem).

import (
	"context"
	"testing"

	"repro/internal/obs"
	"repro/internal/obs/audit"
	"repro/internal/sim"
)

func benchRoundCfg() sim.Config {
	return sim.Config{
		Tags: 100, Seed: 1, Rounds: 1, Workers: 1,
		Algorithm: sim.AlgFSA, FrameSize: 60,
		Detector: sim.DetQCD, Strength: 8,
	}
}

// runRounds runs b.N one-round experiments under ctx.
func runRounds(b *testing.B, ctx context.Context) {
	c := benchRoundCfg()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Seed = uint64(i) + 1
		if _, err := sim.RunContext(ctx, c); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRunRoundUninstrumented(b *testing.B) {
	runRounds(b, context.Background())
}

func BenchmarkRunRoundInstrumented(b *testing.B) {
	runRounds(b, sim.WithMetrics(context.Background(), sim.NewMetrics(obs.NewRegistry())))
}

// BenchmarkRunRoundAudited measures the opt-in cost of shadow-oracle
// auditing.
func BenchmarkRunRoundAudited(b *testing.B) {
	a := audit.New(obs.NewRegistry(), audit.Options{})
	runRounds(b, audit.WithAuditor(context.Background(), a))
}

// roundAllocs measures the allocations of one one-round experiment
// under ctx.
func roundAllocs(t *testing.T, ctx context.Context) float64 {
	t.Helper()
	c := benchRoundCfg()
	return testing.AllocsPerRun(20, func() {
		if _, err := sim.RunContext(ctx, c); err != nil {
			t.Fatal(err)
		}
	})
}

// TestDisabledInstrumentationAddsNoAllocations is the hard guard on the
// dormant path: a run whose context carries observers of other kinds,
// or nil ones, must allocate exactly as a run on a bare context, so
// the observer lookups cannot regress silently. Session construction
// itself allocates (census, delays), so the assertion is equality, not
// zero.
func TestDisabledInstrumentationAddsNoAllocations(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation measurement in -short mode")
	}
	bare := roundAllocs(t, context.Background())
	ctx := context.WithValue(context.Background(), struct{}{}, "unrelated")
	ctx = sim.WithMetrics(audit.WithAuditor(ctx, nil), nil)
	if got := roundAllocs(t, ctx); got != bare {
		t.Errorf("a run with nil observers allocates %v objects, a bare run %v", got, bare)
	}
}

// TestInstrumentedRoundAllocatesLikePlainRound guards the enabled
// metrics path: a run with metric series runs the same slot path as a
// plain one and only folds the finished session into counters, so it
// must allocate exactly as many objects per round. A wrapper around the
// detector would box it once per round and hide it from air's word
// kernel.
func TestInstrumentedRoundAllocatesLikePlainRound(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation measurement in -short mode")
	}
	plain := roundAllocs(t, context.Background())
	ctx := sim.WithMetrics(context.Background(), sim.NewMetrics(obs.NewRegistry()))
	if instrumented := roundAllocs(t, ctx); instrumented != plain {
		t.Errorf("instrumented round allocates %v objects, plain round %v", instrumented, plain)
	}
}
