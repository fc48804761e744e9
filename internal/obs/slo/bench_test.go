package slo

import (
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/obs/tsdb"
)

// BenchmarkEvaluateDisabled is the nil-engine path every sampler tick
// pays when the SLO policy was rejected; it must stay free.
func BenchmarkEvaluateDisabled(b *testing.B) {
	var e *Engine
	now := time.Now()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e.Evaluate(now)
	}
}

// BenchmarkEvaluateDefaultConfig is one full evaluation pass over the
// default objective set against a populated store — the steady-state
// per-tick cost of alerting when enabled.
func BenchmarkEvaluateDefaultConfig(b *testing.B) {
	reg := obs.NewRegistry()
	h := reg.Histogram("rfidd_run_seconds", "run latency", obs.DefaultLatencyBuckets,
		obs.L("origin", "job"))
	store := tsdb.New(reg, tsdb.Options{Interval: time.Second, Retention: 16 * time.Minute})
	eng, err := New(DefaultConfig(), store, reg, nil)
	if err != nil {
		b.Fatal(err)
	}
	now := time.Now()
	for i := 0; i < 64; i++ {
		h.Observe(0.002)
		now = now.Add(time.Second)
		store.Sample(now)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.Evaluate(now)
	}
}
