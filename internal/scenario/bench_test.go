package scenario

import (
	"context"
	"testing"

	"repro/internal/sim"
)

// warehouseSpec is the acceptance workload: ~100k tags through 100
// readers (Table V arena, read range widened to 6 m so the flow is
// mostly coverable).
func warehouseSpec() Spec {
	return Spec{
		Name:              "bench-warehouse",
		SideMetres:        100,
		Readers:           100,
		ReadRangeMetres:   6,
		ArrivalsPerSecond: 100_000,
		DwellMicros:       50_000,
		DurationMicros:    1_000_000,
		Seed:              42,
	}
}

// BenchmarkWarehouse runs the full 100k-tag × 100-reader streaming
// scenario end to end per iteration. The per-op time is the wall time
// of one complete run; tags/s is reported as a custom metric.
func BenchmarkWarehouse(b *testing.B) {
	var pool sim.ScratchPool
	spec := warehouseSpec()
	primeScratch(b, spec, &pool)
	b.ReportAllocs()
	var arrived int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := RunContext(context.Background(), spec, Options{Scratch: &pool})
		if err != nil {
			b.Fatal(err)
		}
		arrived = res.Arrived
	}
	b.StopTimer()
	if arrived > 0 {
		b.ReportMetric(float64(arrived)*float64(b.N)/b.Elapsed().Seconds(), "tags/s")
	}
}

// BenchmarkWarehouseSerial is the same workload pinned to one worker,
// isolating the colour-class parallelism win.
func BenchmarkWarehouseSerial(b *testing.B) {
	var pool sim.ScratchPool
	spec := warehouseSpec()
	spec.Workers = 1
	primeScratch(b, spec, &pool)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := RunContext(context.Background(), spec, Options{Scratch: &pool}); err != nil {
			b.Fatal(err)
		}
	}
}

// primeScratch runs spec once, untimed, so the pool's first-use
// allocations stay out of allocs/op: otherwise they are averaged over
// b.N and the figure depends on the iteration count.
func primeScratch(b *testing.B, spec Spec, pool *sim.ScratchPool) {
	b.Helper()
	if _, err := RunContext(context.Background(), spec, Options{Scratch: pool}); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkWheel pins the event machinery alone: schedule + fire one
// departure per op in steady state.
func BenchmarkWheel(b *testing.B) {
	w := NewWheel(256, 1024)
	now := 0.0
	// Prime every bucket's event slice to steady-state capacity:
	// the growth is one-time and amortises to 0 allocs/op at full
	// benchtime, but at CI's short -benchtime it would register.
	for i := 0; i < 512; i++ {
		w.Schedule(now+50_000, uint64(i))
		now += 1000
		w.AdvanceTo(now, func(uint64) {})
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.Schedule(now+50_000, uint64(i))
		now += 1000
		w.AdvanceTo(now, func(uint64) {})
	}
}
