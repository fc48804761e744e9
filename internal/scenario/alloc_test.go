//go:build !race

// Allocation guards for the scenario hot path. Excluded under the race
// detector, which instruments allocations and would trip the counts.

package scenario

import (
	"context"
	"runtime"
	"testing"
)

// TestWheelSteadyStateAllocatesNothing pins the wheel's pooling
// contract: once buckets have seen their peak occupancy, a
// schedule/advance churn cycle runs at 0 allocs/op.
func TestWheelSteadyStateAllocatesNothing(t *testing.T) {
	w := NewWheel(10, 64)
	now := 0.0
	// Warm-up lap: let every bucket and the firing scratch reach
	// steady-state capacity.
	for i := 0; i < 1024; i++ {
		w.Schedule(now+float64(100+i%500), uint64(i))
	}
	w.AdvanceTo(now+1000, func(uint64) {})
	now += 1000
	if got := testing.AllocsPerRun(100, func() {
		for i := 0; i < 64; i++ {
			w.Schedule(now+float64(100+i*7), uint64(i))
		}
		w.AdvanceTo(now+1000, func(uint64) {})
		now += 1000
	}); got != 0 {
		t.Fatalf("wheel steady state allocates %v/op, want 0", got)
	}
}

// TestStoreSteadyStateAllocatesNothing pins the free-list contract:
// alloc/release churn within the high-water mark allocates nothing.
func TestStoreSteadyStateAllocatesNothing(t *testing.T) {
	st := NewStore(4, 16)
	// Push the high-water mark past what the churn loop needs.
	var hs []Handle
	for i := 0; i < 256; i++ {
		hs = append(hs, st.Alloc(0, 100))
	}
	for _, h := range hs {
		st.Release(h)
	}
	if got := testing.AllocsPerRun(100, func() {
		var batch [64]Handle
		for i := range batch {
			batch[i] = st.Alloc(0, 100)
		}
		for _, h := range batch {
			st.SetSeen(3, h)
			st.ClearSeen(3, h)
			st.Release(h)
		}
	}); got != 0 {
		t.Fatalf("store steady state allocates %v/op, want 0", got)
	}
}

// TestRunSteadyStateAllocsPerEpoch pins a run without a caller's scratch
// pool to a run-owned one: past warm-up, an epoch must cost a handful of
// allocations, not a fresh RoundScratch and IndexFrame per colour class.
// It compares whole runs of 80 and 160 epochs, at one worker (inline
// arrivals) and at two (the generator on its own goroutine).
func TestRunSteadyStateAllocsPerEpoch(t *testing.T) {
	const maxPerEpoch = 10
	spec := Spec{ArrivalsPerSecond: 100e3, DwellMicros: 50e3, DurationMicros: 1, Seed: 1}
	probe, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	epochMicros := float64(probe.Colors) * spec.WithDefaults().SessionMicros
	run := func(epochs int) (mallocs uint64, ran int) {
		spec.DurationMicros = float64(epochs) * epochMicros
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		res, err := RunContext(context.Background(), spec, Options{})
		runtime.ReadMemStats(&m1)
		if err != nil {
			t.Fatal(err)
		}
		return m1.Mallocs - m0.Mallocs, res.Epochs
	}
	for _, workers := range []int{1, 2} {
		spec.Workers = workers
		short, e0 := run(80)
		long, e1 := run(160)
		perEpoch := (float64(long) - float64(short)) / float64(e1-e0)
		t.Logf("workers=%d: %d mallocs over %d epochs, %d over %d: %.1f per extra epoch", workers, short, e0, long, e1, perEpoch)
		if perEpoch > maxPerEpoch {
			t.Errorf("workers=%d: %.1f allocations per extra epoch, want at most %d", workers, perEpoch, maxPerEpoch)
		}
	}
}
