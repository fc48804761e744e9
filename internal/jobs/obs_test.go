package jobs

import (
	"bytes"
	"context"
	"errors"
	"log/slog"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
)

// TestTransitionSequence checks the lifecycle hook fires in order for a
// successful job: enqueue (From == ""), queued→running, running→done.
func TestTransitionSequence(t *testing.T) {
	var mu sync.Mutex
	var got []Transition
	p := NewPool(Options{Workers: 1, OnTransition: func(tr Transition) {
		mu.Lock()
		got = append(got, tr)
		mu.Unlock()
	}})
	defer p.Shutdown(context.Background())

	j := mustSubmit(t, p, "t1", func(context.Context) (any, error) { return 1, nil })
	if _, err := j.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}

	// The terminal transition fires after close(j.done); give the worker
	// goroutine a beat to deliver it.
	deadline := time.Now().Add(2 * time.Second)
	for {
		mu.Lock()
		n := len(got)
		mu.Unlock()
		if n >= 3 || time.Now().After(deadline) {
			break
		}
		time.Sleep(time.Millisecond)
	}

	mu.Lock()
	defer mu.Unlock()
	want := []Transition{
		{ID: "t1", From: "", To: StatusQueued},
		{ID: "t1", From: StatusQueued, To: StatusRunning},
		{ID: "t1", From: StatusRunning, To: StatusDone},
	}
	if len(got) != len(want) {
		t.Fatalf("transitions = %+v, want %+v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("transition %d = %+v, want %+v", i, got[i], want[i])
		}
	}
}

// TestEnqueueReportedBeforeRun: the enqueue transition reaches the hook
// before queued→running, even when the hook is slow and a worker is
// idle, waiting to take the job the moment it is queued.
func TestEnqueueReportedBeforeRun(t *testing.T) {
	var mu sync.Mutex
	var got []Transition
	p := NewPool(Options{Workers: 1, OnTransition: func(tr Transition) {
		if tr.From == "" {
			time.Sleep(50 * time.Millisecond)
		}
		mu.Lock()
		got = append(got, tr)
		mu.Unlock()
	}})
	defer p.Shutdown(context.Background())

	ran := make(chan struct{})
	mustSubmit(t, p, "t1", func(context.Context) (any, error) { close(ran); return nil, nil })
	<-ran
	mu.Lock()
	defer mu.Unlock()
	if len(got) < 2 || got[0].To != StatusQueued || got[1].To != StatusRunning {
		t.Errorf("transitions = %+v, want the enqueue first, then queued→running", got)
	}
}

// TestTransitionCanceledWhileQueued pins the queued→canceled path for a
// job canceled before any worker picks it up.
func TestTransitionCanceledWhileQueued(t *testing.T) {
	var mu sync.Mutex
	var got []Transition
	block := make(chan struct{})
	p := NewPool(Options{Workers: 1, QueueDepth: 4, OnTransition: func(tr Transition) {
		mu.Lock()
		got = append(got, tr)
		mu.Unlock()
	}})
	defer p.Shutdown(context.Background())

	// Occupy the only worker so the second job stays queued.
	mustSubmit(t, p, "blocker", func(ctx context.Context) (any, error) {
		<-block
		return nil, nil
	})
	victim := mustSubmit(t, p, "victim", func(context.Context) (any, error) { return nil, nil })
	if !victim.Cancel() {
		t.Fatal("Cancel returned false for a queued job")
	}
	close(block)
	if _, err := victim.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	snap := victim.Snapshot()
	if snap.Status != StatusCanceled {
		t.Fatalf("victim status = %v", snap.Status)
	}

	deadline := time.Now().Add(2 * time.Second)
	for {
		mu.Lock()
		var seen bool
		for _, tr := range got {
			if tr.ID == "victim" && tr.From == StatusQueued && tr.To == StatusCanceled {
				seen = true
			}
		}
		mu.Unlock()
		if seen {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("no queued→canceled transition for victim; got %+v", got)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestPoolTracerEvents checks the pool records, into the submitter's
// trace, one queue-wait and one run span per job.
func TestPoolTracerEvents(t *testing.T) {
	store := obs.NewTraceStore(1, 64)
	ctx := obs.WithSpan(context.Background(), store.StartTrace("t"))
	p := NewPool(Options{Workers: 2})

	ok, _ := p.Submit(ctx, "ok", func(context.Context) (any, error) { return nil, nil }, nil)
	failing, _ := p.Submit(ctx, "failing", func(context.Context) (any, error) { return nil, errors.New("boom") }, nil)
	ok.Wait(context.Background())
	failing.Wait(context.Background())
	if err := p.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}

	counts := map[string]int{}
	for _, sp := range store.Spans("t") {
		counts[sp.Name]++
	}
	if counts["queue-wait"] != 2 || counts["run"] != 2 {
		t.Errorf("queue-wait/run spans = %d/%d, want 2/2", counts["queue-wait"], counts["run"])
	}
}

// TestPoolLogging checks the structured log stream covers worker
// lifecycle and job terminal states, with the failure logged at warn.
func TestPoolLogging(t *testing.T) {
	var buf bytes.Buffer
	var mu sync.Mutex
	logger := slog.New(slog.NewTextHandler(&lockedWriter{w: &buf, mu: &mu}, nil))
	p := NewPool(Options{Workers: 1, Logger: logger})

	good := mustSubmit(t, p, "good", func(context.Context) (any, error) { return nil, nil })
	bad := mustSubmit(t, p, "bad", func(context.Context) (any, error) { return nil, errors.New("boom") })
	good.Wait(context.Background())
	bad.Wait(context.Background())
	if err := p.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}

	mu.Lock()
	out := buf.String()
	mu.Unlock()
	for _, want := range []string{
		"worker started", "worker stopped",
		`id=good status=done`,
		`level=WARN msg="job finished" id=bad status=failed`,
		"err=boom",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("log stream missing %q:\n%s", want, out)
		}
	}
}

// TestPoolRegisterExposition checks Register publishes the pool's load
// series under the given prefix.
func TestPoolRegisterExposition(t *testing.T) {
	p := NewPool(Options{Workers: 3})
	reg := obs.NewRegistry()
	p.Register(reg, "pool")

	mustSubmit(t, p, "a", func(context.Context) (any, error) { return nil, nil }).Wait(context.Background())
	if err := p.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}

	var sb strings.Builder
	reg.WritePrometheus(&sb)
	text := sb.String()
	for _, want := range []string{
		"pool_workers 3",
		"pool_jobs_submitted_total 1",
		"pool_jobs_done_total 1",
		"pool_jobs_failed_total 0",
		"pool_queue_depth 0",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q:\n%s", want, text)
		}
	}
}

// lockedWriter serialises concurrent handler writes from worker
// goroutines.
type lockedWriter struct {
	w  *bytes.Buffer
	mu *sync.Mutex
}

func (l *lockedWriter) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.w.Write(p)
}
