package sim_test

import (
	"context"
	"testing"

	"repro/internal/obs"
	"repro/internal/sim"
)

// BenchmarkRunRoundCaseII is the acceptance benchmark for the slot-engine
// fast path: one complete FSA round at the paper's case-II scale (n=500,
// F=256) under QCD-8 and CRC-CD. It exercises population setup, frame
// bucketing, and every per-slot kernel end to end.
func BenchmarkRunRoundCaseII(b *testing.B) {
	for _, d := range []struct{ name, det string }{
		{"qcd", sim.DetQCD},
		{"crccd", sim.DetCRCCD},
	} {
		b.Run(d.name, func(b *testing.B) {
			c := sim.Config{
				Tags: 500, Seed: 1, Rounds: 1,
				Algorithm: sim.AlgFSA, FrameSize: 256,
				Detector: d.det, Strength: 8,
			}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := sim.RunRound(c, uint64(i)+1); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkRunContextSpans measures what tracing costs one rfidd-style
// experiment (an svc-cold FSA configuration: 300 tags, 10 rounds,
// F=180, QCD-8, one worker): with no span context, with the inert span
// context a nil store (tracing off) hands out, and with a store
// recording the experiment, round and frame spans into a fresh trace
// per run.
func BenchmarkRunContextSpans(b *testing.B) {
	c := sim.Config{
		Tags: 300, Seed: 1, Rounds: 10, Workers: 1,
		Algorithm: sim.AlgFSA, FrameSize: 180,
		Detector: sim.DetQCD, Strength: 8,
	}
	var disabled *obs.TraceStore
	disabledCtx := obs.WithSpan(context.Background(), disabled.StartTrace("bench"))
	enabled := obs.NewTraceStore(4, 4096)
	for _, tc := range []struct {
		name string
		ctx  func() context.Context
	}{
		{"nospan", context.Background},
		{"disabled", func() context.Context { return disabledCtx }},
		{"enabled", func() context.Context {
			return obs.WithSpan(context.Background(), enabled.StartTrace(""))
		}},
	} {
		b.Run(tc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := sim.RunContext(tc.ctx(), c); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
