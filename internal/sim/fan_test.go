package sim

import (
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/prng"
)

// TestFanRunsEveryIndexOnceWithinBudget: Fan runs every index exactly
// once and never has more than workers units in flight.
func TestFanRunsEveryIndexOnceWithinBudget(t *testing.T) {
	for _, workers := range []int{0, 2, 3, 8} {
		for _, n := range []int{0, 1, 2, 7, 40} {
			runs := make([]atomic.Int32, n)
			var inFlight, peak atomic.Int64
			Fan(workers, n, nil, UnitFunc(func(i int, _ *RoundScratch) {
				cur := inFlight.Add(1)
				for p := peak.Load(); cur > p && !peak.CompareAndSwap(p, cur); p = peak.Load() {
				}
				runs[i].Add(1)
				runtime.Gosched()
				inFlight.Add(-1)
			}))
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

// TestFanSingleWorkerRunsInline: at one worker Fan calls the units on
// the caller's goroutine, in index order.
func TestFanSingleWorkerRunsInline(t *testing.T) {
	var order []int
	before := runtime.NumGoroutine()
	Fan(1, 5, nil, UnitFunc(func(i int, _ *RoundScratch) {
		if now := runtime.NumGoroutine(); now > before {
			t.Errorf("unit %d runs with %d goroutines, %d before the call", i, now, before)
		}
		order = append(order, i)
	}))
	if got := fmt.Sprint(order); got != "[0 1 2 3 4]" {
		t.Fatalf("ran %s, want [0 1 2 3 4]", got)
	}
}

// countUnit is a pointer unit, the shape the scenario engine fans out.
type countUnit struct{ runs int }

func (u *countUnit) RunUnit(int, *RoundScratch) { u.runs++ }

// TestFanSingleWorkerAllocatesNothing: a one-worker Fan over a pointer
// unit with a primed pool allocates nothing, so a caller that fans out
// hundreds of times per run (the scenario engine, once per colour class
// per epoch) pays nothing for it at one worker.
func TestFanSingleWorkerAllocatesNothing(t *testing.T) {
	var pool ScratchPool
	pool.Put(new(RoundScratch))
	u := new(countUnit)
	if allocs := testing.AllocsPerRun(100, func() { Fan(1, 8, &pool, u) }); allocs != 0 {
		t.Fatalf("one-worker Fan allocates %v per call, want 0", allocs)
	}
	if u.runs != 101*8 {
		t.Fatalf("ran %d units, want %d", u.runs, 101*8)
	}
}

// TestFanTakesOneScratchPerGoroutine: each goroutine takes one scratch
// for every unit it runs and returns it. Units never share a scratch at
// once, no more than workers scratches are in play, and the pool ends up
// holding exactly what it held plus what Fan had to allocate: the very
// scratches it was primed with, or, from an empty pool, the ones the
// units saw.
func TestFanTakesOneScratchPerGoroutine(t *testing.T) {
	for _, workers := range []int{1, 2, 3} {
		for _, primed := range []int{0, 4} {
			var pool ScratchPool
			before := map[*RoundScratch]bool{}
			for range primed {
				rs := new(RoundScratch)
				before[rs] = true
				pool.Put(rs)
			}
			var mu sync.Mutex
			seen, busy := map[*RoundScratch]bool{}, map[*RoundScratch]bool{}
			Fan(workers, 40, &pool, UnitFunc(func(_ int, rs *RoundScratch) {
				mu.Lock()
				if busy[rs] {
					t.Errorf("workers %d: two units hold one scratch at once", workers)
				}
				seen[rs], busy[rs] = true, true
				mu.Unlock()
				runtime.Gosched()
				mu.Lock()
				busy[rs] = false
				mu.Unlock()
			}))
			if len(seen) > workers {
				t.Errorf("workers %d: units saw %d scratches", workers, len(seen))
			}
			want := before
			if primed == 0 {
				want = seen
			}
			after := map[*RoundScratch]bool{}
			for _, rs := range pool.free {
				after[rs] = true
			}
			if len(pool.free) != len(want) || len(after) != len(want) {
				t.Fatalf("workers %d, primed %d: pool holds %d scratches after Fan, want %d",
					workers, primed, len(pool.free), len(want))
			}
			for rs := range after {
				if !want[rs] {
					t.Errorf("workers %d, primed %d: pool holds a scratch it should not", workers, primed)
				}
			}
		}
	}
}

// TestFanWorkerPanicReachesCaller: a unit that panics on a worker
// goroutine does not take the process down; the other goroutines stop
// claiming units, and Fan panics on the caller's goroutine with the
// unit's panic value and the worker's stack, where a recover sees it.
func TestFanWorkerPanicReachesCaller(t *testing.T) {
	var ran atomic.Int32
	got := func() (v any) {
		defer func() { v = recover() }()
		Fan(2, 1000, nil, UnitFunc(func(i int, _ *RoundScratch) {
			ran.Add(1)
			if i == 3 {
				panic("unit 3 failed")
			}
			runtime.Gosched()
		}))
		return nil
	}()
	msg, _ := got.(string)
	if !strings.Contains(msg, "unit 3 failed") || !strings.Contains(msg, "TestFanWorkerPanicReachesCaller") {
		t.Fatalf("recovered %v, want the unit's panic value and the worker's stack", got)
	}
	if n := ran.Load(); n == 1000 {
		t.Errorf("all %d units ran after a panic, want the fan-out stopped", n)
	}
}

// TestRoundSeeds pins the seed schedule: round r's seed is the r-th
// Uint64 of prng.New(seed), and a shorter schedule is a prefix of a
// longer one.
func TestRoundSeeds(t *testing.T) {
	src := prng.New(42)
	seeds := RoundSeeds(42, 10)
	for r, s := range seeds {
		if want := src.Uint64(); s != want {
			t.Fatalf("seed %d = %#x, want %#x", r, s, want)
		}
	}
	if got := fmt.Sprint(RoundSeeds(42, 3)); got != fmt.Sprint(seeds[:3]) {
		t.Errorf("RoundSeeds(42, 3) = %s, want the prefix %s", got, fmt.Sprint(seeds[:3]))
	}
}
