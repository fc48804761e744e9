package tsdb

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/obs"
)

// BenchmarkSampleSteadyState measures one full registry walk + ring
// write with a realistic series population (~40 series incl. labelled
// families and histograms). The allocs gate pins this at 0 allocs/op.
func BenchmarkSampleSteadyState(b *testing.B) {
	reg := obs.NewRegistry()
	for i := 0; i < 10; i++ {
		reg.Counter("bench_jobs_total", "Jobs.", obs.L("origin", fmt.Sprintf("o%d", i))).Add(uint64(i))
		reg.Gauge("bench_depth", "Depth.", obs.L("origin", fmt.Sprintf("o%d", i))).Set(float64(i))
		reg.Histogram("bench_lat_seconds", "Latency.", obs.DefaultLatencyBuckets,
			obs.L("origin", fmt.Sprintf("o%d", i))).Observe(float64(i))
	}
	s := New(reg, Options{Interval: time.Second, Retention: 16 * time.Minute})
	now := time.Unix(1000, 0)
	s.Sample(now)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		now = now.Add(time.Second)
		s.Sample(now)
	}
}

// BenchmarkQueryRate measures a rate derivation over a full retention
// window (960 points) — the statusz sparkline path.
func BenchmarkQueryRate(b *testing.B) {
	reg := obs.NewRegistry()
	c := reg.Counter("bench_total", "Counter.")
	s := New(reg, Options{Interval: time.Second, Retention: 16 * time.Minute})
	now := time.Unix(1000, 0)
	for i := 0; i < 960; i++ {
		c.Add(5)
		s.Sample(now)
		now = now.Add(time.Second)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Query("bench_total", 0, ReduceRate); err != nil {
			b.Fatal(err)
		}
	}
}
