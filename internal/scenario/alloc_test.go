//go:build !race

// Allocation guards for the scenario hot path. Excluded under the race
// detector, which instruments allocations and would trip the counts.

package scenario

import "testing"

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
