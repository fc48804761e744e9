//go:build !race

package tsdb

import (
	"testing"
	"time"

	"repro/internal/obs"
)

// TestSampleSteadyStateAllocatesNothing pins the store's core cost
// contract: once every series has been seen, a Sample tick allocates
// nothing. (Excluded under -race: the race runtime itself allocates.)
func TestSampleSteadyStateAllocatesNothing(t *testing.T) {
	reg := obs.NewRegistry()
	reg.Counter("c_total", "Counter.").Add(1)
	reg.Gauge("g", "Gauge.").Set(1)
	h := reg.Histogram("h_seconds", "Histogram.", obs.DefaultLatencyBuckets)
	h.Observe(0.5)
	s := New(reg, Options{Interval: time.Second, Retention: time.Minute})
	s.Probe("p_total", "", KindCounter, func() float64 { return 1 })
	now := time.Unix(1000, 0)
	s.Sample(now) // first tick creates the rings
	if got := testing.AllocsPerRun(100, func() {
		now = now.Add(time.Second)
		s.Sample(now)
	}); got != 0 {
		t.Fatalf("steady-state Sample allocates %v allocs/op, want 0", got)
	}
}
