package jobs

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

// newTestPool returns a small pool sized independently of the host.
func newTestPool(o Options) *Pool {
	if o.Workers == 0 {
		o.Workers = 2
	}
	if o.QueueDepth == 0 {
		o.QueueDepth = 8
	}
	return NewPool(o)
}

// submit enqueues fn under id with no trace context and no finish hook.
func submit(p *Pool, id string, fn Func) (*Job, error) {
	return p.Submit(context.Background(), id, fn, nil)
}

// mustSubmit is submit for jobs the test expects the pool to accept.
func mustSubmit(t *testing.T, p *Pool, id string, fn Func) *Job {
	t.Helper()
	j, err := submit(p, id, fn)
	if err != nil {
		t.Fatal(err)
	}
	return j
}

func TestSubmitRunsToDone(t *testing.T) {
	p := newTestPool(Options{})
	defer p.Shutdown(context.Background())
	j := mustSubmit(t, p, "j1", func(ctx context.Context) (any, error) {
		return 42, nil
	})
	snap, err := j.Wait(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if snap.Status != StatusDone || snap.Result.(int) != 42 || snap.Err != nil {
		t.Errorf("snapshot = %+v", snap)
	}
	if snap.StartedAt.IsZero() {
		t.Error("a job that ran has no start time")
	}
	if snap.Latency() <= 0 {
		t.Errorf("latency = %v, want > 0", snap.Latency())
	}
}

func TestSubmitValidation(t *testing.T) {
	p := newTestPool(Options{})
	defer p.Shutdown(context.Background())
	if _, err := submit(p, "j1", nil); err == nil {
		t.Error("nil Func accepted")
	}
	mustSubmit(t, p, "j1", func(ctx context.Context) (any, error) { return nil, nil })
}

func TestQueueFull(t *testing.T) {
	p := NewPool(Options{Workers: 1, QueueDepth: 2})
	defer p.Shutdown(context.Background())

	block := make(chan struct{})
	started := make(chan struct{})
	mustSubmit(t, p, "running", func(ctx context.Context) (any, error) {
		close(started)
		<-block
		return nil, nil
	})
	<-started // the single worker is now occupied
	sleepy := func(ctx context.Context) (any, error) { return nil, nil }
	mustSubmit(t, p, "q1", sleepy)
	mustSubmit(t, p, "q2", sleepy)
	if _, err := submit(p, "q3", sleepy); !errors.Is(err, ErrQueueFull) {
		t.Errorf("overfull submit: err = %v, want ErrQueueFull", err)
	}
	close(block)
}

func TestPermanentErrorNotRetried(t *testing.T) {
	p := newTestPool(Options{})
	defer p.Shutdown(context.Background())
	var calls atomic.Int32
	j := mustSubmit(t, p, "fatal", func(ctx context.Context) (any, error) {
		calls.Add(1)
		return nil, errors.New("bad config")
	})
	snap, _ := j.Wait(context.Background())
	if snap.Status != StatusFailed || calls.Load() != 1 {
		t.Errorf("status = %s calls = %d, want one failed attempt", snap.Status, calls.Load())
	}
}

func TestCancelRunning(t *testing.T) {
	p := newTestPool(Options{})
	defer p.Shutdown(context.Background())
	started := make(chan struct{})
	j := mustSubmit(t, p, "victim", func(ctx context.Context) (any, error) {
		close(started)
		<-ctx.Done()
		return nil, ctx.Err()
	})
	<-started
	if !j.Cancel() {
		t.Fatal("Cancel returned false for a running job")
	}
	snap, _ := j.Wait(context.Background())
	if snap.Status != StatusCanceled {
		t.Errorf("status = %s, want canceled", snap.Status)
	}
	if j.Cancel() {
		t.Error("Cancel succeeded twice")
	}
}

func TestCancelQueued(t *testing.T) {
	p := NewPool(Options{Workers: 1, QueueDepth: 4})
	defer p.Shutdown(context.Background())
	block := make(chan struct{})
	started := make(chan struct{})
	mustSubmit(t, p, "blocker", func(ctx context.Context) (any, error) {
		close(started)
		<-block
		return nil, nil
	})
	<-started
	var ran atomic.Bool
	j := mustSubmit(t, p, "queued", func(ctx context.Context) (any, error) {
		ran.Store(true)
		return nil, nil
	})
	if !j.Cancel() {
		t.Fatal("Cancel returned false for a queued job")
	}
	close(block)
	snap, _ := j.Wait(context.Background())
	if snap.Status != StatusCanceled || ran.Load() {
		t.Errorf("queued job ran despite cancellation: %+v ran=%v", snap, ran.Load())
	}
}

func TestGracefulShutdownDrains(t *testing.T) {
	p := NewPool(Options{Workers: 2, QueueDepth: 16})
	var finished atomic.Int32
	const n = 8
	for i := 0; i < n; i++ {
		id := fmt.Sprintf("j%d", i)
		mustSubmit(t, p, id, func(ctx context.Context) (any, error) {
			time.Sleep(5 * time.Millisecond)
			finished.Add(1)
			return id, nil
		})
	}
	if err := p.Shutdown(context.Background()); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if finished.Load() != n {
		t.Errorf("drained %d of %d jobs", finished.Load(), n)
	}
	st := p.Stats()
	if st.Done != n || st.QueueDepth != 0 || st.Busy != 0 {
		t.Errorf("post-drain stats = %+v", st)
	}
	if _, err := submit(p, "late", func(ctx context.Context) (any, error) { return nil, nil }); !errors.Is(err, ErrClosed) {
		t.Errorf("submit after shutdown: err = %v, want ErrClosed", err)
	}
	// A second Shutdown is a no-op.
	if err := p.Shutdown(context.Background()); err != nil {
		t.Errorf("second Shutdown: %v", err)
	}
}

func TestShutdownDeadlineCancelsRunning(t *testing.T) {
	p := NewPool(Options{Workers: 1, QueueDepth: 4})
	started := make(chan struct{})
	j := mustSubmit(t, p, "stubborn", func(ctx context.Context) (any, error) {
		close(started)
		<-ctx.Done() // only exits when the pool hard-cancels
		return nil, ctx.Err()
	})
	<-started
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if err := p.Shutdown(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Shutdown err = %v, want DeadlineExceeded", err)
	}
	snap := j.Snapshot()
	if snap.Status != StatusCanceled {
		t.Errorf("status = %s, want canceled after forced shutdown", snap.Status)
	}
}

func TestStatsAndUtilisation(t *testing.T) {
	p := NewPool(Options{Workers: 2, QueueDepth: 8})
	defer p.Shutdown(context.Background())
	block := make(chan struct{})
	started := make(chan struct{}, 2)
	for i := 0; i < 2; i++ {
		mustSubmit(t, p, fmt.Sprintf("b%d", i), func(ctx context.Context) (any, error) {
			started <- struct{}{}
			<-block
			return nil, nil
		})
	}
	<-started
	<-started
	st := p.Stats()
	if st.Busy != 2 || st.Workers != 2 {
		t.Errorf("stats = %+v, want 2/2 busy", st)
	}
	if st.Utilisation() != 1 {
		t.Errorf("utilisation = %v, want 1", st.Utilisation())
	}
	close(block)
	if (Stats{}).Utilisation() != 0 {
		t.Error("zero-worker utilisation != 0")
	}
}

func TestOnDoneCallback(t *testing.T) {
	doneIDs := make(chan string, 4)
	p := NewPool(Options{Workers: 2, QueueDepth: 8, OnDone: func(s Snapshot) {
		if !s.Status.Terminal() {
			t.Errorf("OnDone with live status %s", s.Status)
		}
		doneIDs <- s.ID
	}})
	defer p.Shutdown(context.Background())
	mustSubmit(t, p, "a", func(ctx context.Context) (any, error) { return 1, nil })
	mustSubmit(t, p, "b", func(ctx context.Context) (any, error) { return nil, errors.New("no") })
	got := map[string]bool{<-doneIDs: true, <-doneIDs: true}
	if !got["a"] || !got["b"] {
		t.Errorf("OnDone ids = %v", got)
	}
}

// TestTerminalJobPinsNoClosure: a terminal job drops its function and
// finish hook, so a kept handle does not keep what they capture alive.
func TestTerminalJobPinsNoClosure(t *testing.T) {
	p := newTestPool(Options{})
	defer p.Shutdown(context.Background())
	type captured struct {
		n   int
		pad [64]byte // too big for the tiny allocator, so it is finalised alone
	}
	const n = 8
	var freed atomic.Int32
	handles := make([]*Job, n)
	for i := range handles {
		v := &captured{n: i}
		runtime.SetFinalizer(v, func(*captured) { freed.Add(1) })
		j, err := p.Submit(context.Background(), fmt.Sprintf("j%d", i),
			func(context.Context) (any, error) { return v.n, nil },
			func(Snapshot) { _ = v.pad })
		if err != nil {
			t.Fatal(err)
		}
		handles[i] = j
	}
	for _, j := range handles {
		if snap, err := j.Wait(context.Background()); err != nil || snap.Status != StatusDone {
			t.Fatalf("job %s: %s, %v", snap.ID, snap.Status, err)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for freed.Load() < n {
		if time.Now().After(deadline) {
			t.Fatalf("%d of %d captured values freed", freed.Load(), n)
		}
		runtime.GC()
		time.Sleep(time.Millisecond)
	}
	runtime.KeepAlive(handles)
}
