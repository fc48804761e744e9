package experiment

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
)

// TestArtifactsIndependentOfWorkers: every artifact renders byte-identical
// text and CSV whatever the worker budget, including 3 workers, over
// which most drivers' units (mobility's 16, floor's 4) do not split
// evenly. Each budget gets a registry (and memo) of its own, so every
// aggregate is computed at that budget.
func TestArtifactsIndependentOfWorkers(t *testing.T) {
	render := func(workers int) map[string][2]string {
		o := Options{Rounds: 3, MaxCase: 2, Seed: 1, Workers: workers}
		out := map[string][2]string{}
		for _, r := range Registry() {
			res, err := r.Run(o)
			if err != nil {
				t.Fatalf("%s at %d workers: %v", r.ID, workers, err)
			}
			out[r.ID] = [2]string{res.Render(), CSVOf(res)}
		}
		return out
	}
	want := render(1)
	for _, workers := range []int{2, 3} {
		for id, got := range render(workers) {
			if got[0] != want[id][0] {
				t.Errorf("%s at %d workers renders\n%s\nat 1 worker\n%s", id, workers, got[0], want[id][0])
			}
			if got[1] != want[id][1] {
				t.Errorf("%s at %d workers CSV\n%s\nat 1 worker\n%s", id, workers, got[1], want[id][1])
			}
		}
	}
}

// TestEachRunsEveryIndexOnceWithinBudget: each runs every index exactly
// once and never has more than Workers units in flight.
func TestEachRunsEveryIndexOnceWithinBudget(t *testing.T) {
	for _, workers := range []int{0, 2, 3, 8} {
		for _, n := range []int{0, 1, 2, 7, 40} {
			runs := make([]atomic.Int32, n)
			var inFlight, peak atomic.Int64
			Options{Workers: workers}.each(n, func(i int) {
				cur := inFlight.Add(1)
				for p := peak.Load(); cur > p && !peak.CompareAndSwap(p, cur); p = peak.Load() {
				}
				runs[i].Add(1)
				runtime.Gosched()
				inFlight.Add(-1)
			})
			for i := range runs {
				if got := runs[i].Load(); got != 1 {
					t.Errorf("workers %d, n %d: index %d ran %d times", workers, n, i, got)
				}
			}
			budget := workers
			if budget == 0 {
				budget = runtime.GOMAXPROCS(0)
			}
			if got := peak.Load(); got > int64(budget) {
				t.Errorf("workers %d, n %d: %d units in flight", workers, n, got)
			}
		}
	}
}

// TestEachSingleWorkerRunsInline: at one worker each calls the units on
// the caller's goroutine, in index order.
func TestEachSingleWorkerRunsInline(t *testing.T) {
	var order []int
	before := runtime.NumGoroutine()
	Options{Workers: 1}.each(5, func(i int) {
		if now := runtime.NumGoroutine(); now > before {
			t.Errorf("unit %d runs with %d goroutines, %d before the call", i, now, before)
		}
		order = append(order, i)
	})
	if got := fmt.Sprint(order); got != "[0 1 2 3 4]" {
		t.Fatalf("ran %s, want [0 1 2 3 4]", got)
	}
}
