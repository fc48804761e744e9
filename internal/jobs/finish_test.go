package jobs

import (
	"context"
	"errors"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/obs"
)

// TestPanickingJobFailsAndWorkerContinues: a panicking job ends failed
// with the panic value and its stack, is not retried, is counted, and
// the only worker goes on to run the next job.
func TestPanickingJobFailsAndWorkerContinues(t *testing.T) {
	p := NewPool(Options{Workers: 1, QueueDepth: 4})
	defer p.Shutdown(context.Background())
	reg := obs.NewRegistry()
	p.Register(reg, "pool")

	var calls atomic.Int32
	boomJob := mustSubmit(t, p, "boom", func(context.Context) (any, error) { calls.Add(1); panic("kaboom") })
	nextJob := mustSubmit(t, p, "next", func(context.Context) (any, error) { return 7, nil })
	boom, err := boomJob.Wait(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if boom.Status != StatusFailed || boom.Err == nil {
		t.Fatalf("panicking job = %+v, want failed", boom)
	}
	if msg := boom.Err.Error(); !strings.Contains(msg, "kaboom") || !strings.Contains(msg, "goroutine") {
		t.Errorf("panic error lacks the value or the stack: %q", msg)
	}
	if n := calls.Load(); n != 1 {
		t.Errorf("panicking job ran %d times, want 1 (no retry)", n)
	}
	next, err := nextJob.Wait(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if next.Status != StatusDone || next.Result != 7 {
		t.Errorf("job after the panic = %+v, want done with 7", next)
	}
	if got := p.Stats().Panics; got != 1 {
		t.Errorf("Stats().Panics = %d, want 1", got)
	}
	var sb strings.Builder
	reg.WritePrometheus(&sb)
	if !strings.Contains(sb.String(), "pool_jobs_panics_total 1") {
		t.Errorf("exposition lacks pool_jobs_panics_total 1:\n%s", sb.String())
	}
}

// TestFinishHookOnEveryTerminalPath: the per-job finish hook sees the
// terminal snapshot on every path, on the worker, before the worker
// starts its next job.
func TestFinishHookOnEveryTerminalPath(t *testing.T) {
	p := NewPool(Options{Workers: 1, QueueDepth: 8})
	defer p.Shutdown(context.Background())

	var pending atomic.Int32 // finish hooks owed by jobs the worker has taken
	finished := make(chan Snapshot, 8)
	finish := func(s Snapshot) {
		pending.Add(-1)
		finished <- s
	}
	submit := func(id string, fn Func) *Job {
		t.Helper()
		wrapped := func(ctx context.Context) (any, error) {
			if n := pending.Add(1); n != 1 {
				t.Errorf("%s started with %d finish hooks outstanding", id, n-1)
			}
			return fn(ctx)
		}
		j, err := p.Submit(context.Background(), id, wrapped, finish)
		if err != nil {
			t.Fatal(err)
		}
		return j
	}

	running := make(chan struct{})
	runningCanceled := submit("running-canceled", func(ctx context.Context) (any, error) {
		close(running)
		<-ctx.Done()
		return nil, ctx.Err()
	})
	queuedCanceled := submit("queued-canceled", func(context.Context) (any, error) { return nil, nil })
	submit("done", func(context.Context) (any, error) { return 1, nil })
	submit("failed", func(context.Context) (any, error) { return nil, errors.New("no") })
	submit("panicked", func(context.Context) (any, error) { panic("boom") })
	<-running
	queuedCanceled.Cancel()
	pending.Add(1) // its hook runs without the job ever starting
	runningCanceled.Cancel()

	want := map[string]Status{
		"running-canceled": StatusCanceled, "queued-canceled": StatusCanceled,
		"done": StatusDone, "failed": StatusFailed, "panicked": StatusFailed,
	}
	for n := len(want); n > 0; n-- {
		s := <-finished
		if s.Status != want[s.ID] {
			t.Errorf("%s: finish hook saw %s, want %s", s.ID, s.Status, want[s.ID])
		}
		delete(want, s.ID)
	}
	if len(want) != 0 {
		t.Errorf("finish hook never ran for %v", want)
	}
}

// TestOnDoneRunsBeforeFinishHook: the pool-wide OnDone has run by the
// time a job's finish hook sees the terminal snapshot, so whatever the
// hook publishes comes after what OnDone records.
func TestOnDoneRunsBeforeFinishHook(t *testing.T) {
	var onDone atomic.Int32
	p := NewPool(Options{Workers: 1, OnDone: func(Snapshot) { onDone.Add(1) }})
	defer p.Shutdown(context.Background())
	seen := make(chan int32, 1)
	if _, err := p.Submit(context.Background(), "j", func(context.Context) (any, error) { return 1, nil },
		func(Snapshot) { seen <- onDone.Load() }); err != nil {
		t.Fatal(err)
	}
	if n := <-seen; n != 1 {
		t.Errorf("finish hook ran after %d OnDone calls, want 1", n)
	}
}
