package jobs

import (
	"context"
	"errors"
	"fmt"
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
func submit(p *Pool, id string, fn Func) error {
	return p.Submit(context.Background(), id, fn, nil)
}

func TestSubmitRunsToDone(t *testing.T) {
	p := newTestPool(Options{})
	defer p.Shutdown(context.Background())
	if err := submit(p, "j1", func(ctx context.Context) (any, error) {
		return 42, nil
	}); err != nil {
		t.Fatal(err)
	}
	snap, err := p.Wait(context.Background(), "j1")
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
	if err := submit(p, "j1", nil); err == nil {
		t.Error("nil Func accepted")
	}
	ok := func(ctx context.Context) (any, error) { return nil, nil }
	if err := submit(p, "j1", ok); err != nil {
		t.Fatal(err)
	}
	if err := submit(p, "j1", ok); !errors.Is(err, ErrDuplicateID) {
		t.Errorf("duplicate id: err = %v", err)
	}
	if _, found := p.Get("nope"); found {
		t.Error("Get found an unknown id")
	}
	if _, err := p.Wait(context.Background(), "nope"); err == nil {
		t.Error("Wait on unknown id succeeded")
	}
}

func TestQueueFull(t *testing.T) {
	p := NewPool(Options{Workers: 1, QueueDepth: 2})
	defer p.Shutdown(context.Background())

	block := make(chan struct{})
	started := make(chan struct{})
	if err := submit(p, "running", func(ctx context.Context) (any, error) {
		close(started)
		<-block
		return nil, nil
	}); err != nil {
		t.Fatal(err)
	}
	<-started // the single worker is now occupied
	sleepy := func(ctx context.Context) (any, error) { return nil, nil }
	if err := submit(p, "q1", sleepy); err != nil {
		t.Fatal(err)
	}
	if err := submit(p, "q2", sleepy); err != nil {
		t.Fatal(err)
	}
	if err := submit(p, "q3", sleepy); !errors.Is(err, ErrQueueFull) {
		t.Errorf("overfull submit: err = %v, want ErrQueueFull", err)
	}
	close(block)
}

func TestPermanentErrorNotRetried(t *testing.T) {
	p := newTestPool(Options{})
	defer p.Shutdown(context.Background())
	var calls atomic.Int32
	submit(p, "fatal", func(ctx context.Context) (any, error) {
		calls.Add(1)
		return nil, errors.New("bad config")
	})
	snap, _ := p.Wait(context.Background(), "fatal")
	if snap.Status != StatusFailed || calls.Load() != 1 {
		t.Errorf("status = %s calls = %d, want one failed attempt", snap.Status, calls.Load())
	}
}

func TestCancelRunning(t *testing.T) {
	p := newTestPool(Options{})
	defer p.Shutdown(context.Background())
	started := make(chan struct{})
	submit(p, "victim", func(ctx context.Context) (any, error) {
		close(started)
		<-ctx.Done()
		return nil, ctx.Err()
	})
	<-started
	if !p.Cancel("victim") {
		t.Fatal("Cancel returned false for a running job")
	}
	snap, _ := p.Wait(context.Background(), "victim")
	if snap.Status != StatusCanceled {
		t.Errorf("status = %s, want canceled", snap.Status)
	}
	if p.Cancel("victim") {
		t.Error("Cancel succeeded twice")
	}
	if p.Cancel("ghost") {
		t.Error("Cancel found an unknown id")
	}
}

func TestCancelQueued(t *testing.T) {
	p := NewPool(Options{Workers: 1, QueueDepth: 4})
	defer p.Shutdown(context.Background())
	block := make(chan struct{})
	started := make(chan struct{})
	submit(p, "blocker", func(ctx context.Context) (any, error) {
		close(started)
		<-block
		return nil, nil
	})
	<-started
	var ran atomic.Bool
	submit(p, "queued", func(ctx context.Context) (any, error) {
		ran.Store(true)
		return nil, nil
	})
	if !p.Cancel("queued") {
		t.Fatal("Cancel returned false for a queued job")
	}
	close(block)
	snap, _ := p.Wait(context.Background(), "queued")
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
		if err := submit(p, id, func(ctx context.Context) (any, error) {
			time.Sleep(5 * time.Millisecond)
			finished.Add(1)
			return id, nil
		}); err != nil {
			t.Fatal(err)
		}
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
	if err := submit(p, "late", func(ctx context.Context) (any, error) { return nil, nil }); !errors.Is(err, ErrClosed) {
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
	submit(p, "stubborn", func(ctx context.Context) (any, error) {
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
	snap, _ := p.Get("stubborn")
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
		submit(p, fmt.Sprintf("b%d", i), func(ctx context.Context) (any, error) {
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
	submit(p, "a", func(ctx context.Context) (any, error) { return 1, nil })
	submit(p, "b", func(ctx context.Context) (any, error) { return nil, errors.New("no") })
	got := map[string]bool{<-doneIDs: true, <-doneIDs: true}
	if !got["a"] || !got["b"] {
		t.Errorf("OnDone ids = %v", got)
	}
}

func TestForgetDropsTerminalJobsOnly(t *testing.T) {
	p := newTestPool(Options{})
	defer p.Shutdown(context.Background())

	release := make(chan struct{})
	if err := submit(p, "live", func(ctx context.Context) (any, error) {
		<-release
		return nil, nil
	}); err != nil {
		t.Fatal(err)
	}
	if p.Forget("live") {
		t.Error("Forget accepted a live job")
	}
	if p.Forget("absent") {
		t.Error("Forget accepted an unknown job")
	}
	close(release)
	if _, err := p.Wait(context.Background(), "live"); err != nil {
		t.Fatal(err)
	}
	if !p.Forget("live") {
		t.Error("Forget refused a terminal job")
	}
	if _, ok := p.Get("live"); ok {
		t.Error("forgotten job still indexed")
	}
	if n := p.Stats().Indexed; n != 0 {
		t.Errorf("Stats().Indexed = %d after Forget, want 0", n)
	}
	// The id is reusable afterwards, and the index stays bounded under a
	// sustained submit/forget stream.
	for i := 0; i < 100; i++ {
		if err := submit(p, "live", func(ctx context.Context) (any, error) { return i, nil }); err != nil {
			t.Fatal(err)
		}
		if _, err := p.Wait(context.Background(), "live"); err != nil {
			t.Fatal(err)
		}
		if !p.Forget("live") {
			t.Fatal("Forget refused a terminal job")
		}
	}
	if n := p.Stats().Indexed; n != 0 {
		t.Errorf("Stats().Indexed = %d after a submit/forget stream, want 0", n)
	}
}
