package sim

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"

	"repro/internal/prng"
)

// Unit is the body of a fan-out: Fan calls RunUnit once per index,
// handing it the scratch of the goroutine that runs it. A type that
// implements it on a pointer fans out without allocating.
type Unit interface {
	RunUnit(i int, rs *RoundScratch)
}

// UnitFunc adapts a function to Unit.
type UnitFunc func(i int, rs *RoundScratch)

// RunUnit calls f(i, rs).
func (f UnitFunc) RunUnit(i int, rs *RoundScratch) { f(i, rs) }

// Fan runs u.RunUnit(i, rs) for every i in 0…n−1 on at most workers
// goroutines (workers ≤ 0 means GOMAXPROCS), clamped to n, and returns
// when every unit has returned. The goroutines claim indices from one
// atomic counter, so each index runs exactly once; at one worker every
// unit runs inline, in index order, on the caller's goroutine. Each
// goroutine that claims a unit takes one RoundScratch from pool for all
// the units it runs and puts it back when done (a nil pool allocates
// fresh scratch); one that claims none takes nothing. A unit writes
// only its own index's results, so a caller that folds them in index
// order gets the same answer at every worker count.
//
// A unit that panics on a worker goroutine ends the fan-out: no
// goroutine claims another unit, the panicking one drops its scratch,
// and once all have returned Fan panics on the caller's goroutine with
// the first panic's value and that worker's stack, where the caller's
// recover (the job pool's) sees it.
func Fan(workers, n int, pool *ScratchPool, u Unit) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers = min(workers, n); workers <= 1 {
		rs := pool.Get()
		for i := 0; i < n; i++ {
			u.RunUnit(i, rs)
		}
		pool.Put(rs)
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	var first sync.Once
	var panicked any
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			defer func() {
				if v := recover(); v != nil {
					next.Store(int64(n)) // no goroutine claims another unit
					first.Do(func() {
						panicked = fmt.Sprintf("%v\n\nstack of the fan worker that panicked:\n%s", v, debug.Stack())
					})
				}
			}()
			i := int(next.Add(1)) - 1
			if i >= n { // the others ran every unit before this one started
				return
			}
			rs := pool.Get()
			for ; i < n; i = int(next.Add(1)) - 1 {
				u.RunUnit(i, rs)
			}
			pool.Put(rs)
		}()
	}
	wg.Wait()
	if panicked != nil {
		panic(panicked)
	}
}

// RoundSeeds is the seed schedule of every Monte-Carlo loop: round r
// starts from the r-th Uint64 of prng.New(seed). All n are drawn before
// any round runs, so scheduling cannot move one.
func RoundSeeds(seed uint64, n int) []uint64 {
	src := prng.New(seed)
	seeds := make([]uint64, n)
	for r := range seeds {
		seeds[r] = src.Uint64()
	}
	return seeds
}
