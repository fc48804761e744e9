//go:build !race

package obs

// Allocation guards for the spans-disabled path, in the same spirit as
// the sim/air guards: threading trace context through the job and sweep
// hot paths is only free if an absent span context, or one a nil store
// handed out, costs zero allocations per call. The race detector
// instruments allocations, so these run only without -race (CI has a
// dedicated non-race shard).

import (
	"context"
	"testing"
)

func TestSpanDisabledAllocatesNothing(t *testing.T) {
	// Absent span context: the lookup plus an inert start/end cycle.
	bg := context.Background()
	if n := testing.AllocsPerRun(100, func() {
		sc := SpanFrom(bg)
		h := sc.Start("jobs", "run")
		h.End()
	}); n != 0 {
		t.Errorf("absent span context: %v allocs/op, want 0", n)
	}

	// Nil store (tracing off): the context carries the inert span
	// context it minted, trace ID and all, with zero allocations.
	var s *TraceStore
	ctx := WithSpan(bg, s.StartTrace("t"))
	if n := testing.AllocsPerRun(100, func() {
		sc := SpanFrom(ctx)
		h := sc.Start("jobs", "run")
		if h.Live() {
			h.End(SA("never", "recorded"))
		} else {
			h.End()
		}
	}); n != 0 {
		t.Errorf("nil store: %v allocs/op, want 0", n)
	}
}
