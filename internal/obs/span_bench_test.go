package obs

// Span-path benchmarks, gated by scripts/bench_gate.sh against
// BENCH_slotpath.json: the disabled paths must stay at 0 allocs/op (any
// growth fails CI), and the enabled path documents the opt-in cost.

import (
	"context"
	"testing"
)

func BenchmarkSpanDisabledAbsent(b *testing.B) {
	ctx := context.Background()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sc := SpanFrom(ctx)
		h := sc.Start("jobs", "run")
		h.End()
	}
}

func BenchmarkSpanEnabled(b *testing.B) {
	s := NewTraceStore(4, 64)
	sc := s.StartTrace("bench")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h := sc.Start("jobs", "run")
		h.End(SA("status", "done"))
	}
}
