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

	if err := p.Submit("t1", func(context.Context) (any, error) { return 1, nil }); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Wait(context.Background(), "t1"); err != nil {
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
		{ID: "t1", From: "", To: StatusQueued, Attempts: 0},
		{ID: "t1", From: StatusQueued, To: StatusRunning, Attempts: 0},
		{ID: "t1", From: StatusRunning, To: StatusDone, Attempts: 1},
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
	p.Submit("blocker", func(ctx context.Context) (any, error) {
		<-block
		return nil, nil
	})
	p.Submit("victim", func(context.Context) (any, error) { return nil, nil })
	if !p.Cancel("victim") {
		t.Fatal("Cancel returned false for a queued job")
	}
	close(block)
	if _, err := p.Wait(context.Background(), "victim"); err != nil {
		t.Fatal(err)
	}
	snap, _ := p.Get("victim")
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
// trace, one queue-wait and one run span per job and a zero-length
// retry span under the run of the job that retried.
func TestPoolTracerEvents(t *testing.T) {
	store := obs.NewTraceStore(1, 64)
	ctx := obs.WithSpan(context.Background(), store.StartTrace("t"))
	p := NewPool(Options{Workers: 2, Retries: 1, Backoff: time.Millisecond})

	p.SubmitTraced(ctx, "ok", func(context.Context) (any, error) { return nil, nil })
	attempts := 0
	p.SubmitTraced(ctx, "flaky", func(context.Context) (any, error) {
		attempts++
		if attempts == 1 {
			return nil, Transient(errors.New("blip"))
		}
		return nil, nil
	})
	p.Wait(context.Background(), "ok")
	p.Wait(context.Background(), "flaky")
	if err := p.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}

	counts := map[string]int{}
	runOf := map[uint64]any{} // run span ID → job id
	for _, sp := range store.Spans("t") {
		counts[sp.Name]++
		if sp.Name == "run" {
			runOf[sp.ID] = sp.Attrs[0].Val
		}
	}
	if counts["queue-wait"] != 2 || counts["run"] != 2 {
		t.Errorf("queue-wait/run spans = %d/%d, want 2/2", counts["queue-wait"], counts["run"])
	}
	if counts["retry"] != 1 {
		t.Fatalf("retry spans = %d, want 1", counts["retry"])
	}
	for _, sp := range store.Spans("t") {
		if sp.Name == "retry" && (runOf[sp.Parent] != "flaky" || sp.DurUS != 0) {
			t.Errorf("retry span %+v: want a zero-length child of flaky's run span", sp)
		}
	}
}

// TestPoolLogging checks the structured log stream covers worker
// lifecycle and job terminal states, with the failure logged at warn.
func TestPoolLogging(t *testing.T) {
	var buf bytes.Buffer
	var mu sync.Mutex
	logger := slog.New(slog.NewTextHandler(&lockedWriter{w: &buf, mu: &mu}, nil))
	p := NewPool(Options{Workers: 1, Logger: logger})

	p.Submit("good", func(context.Context) (any, error) { return nil, nil })
	p.Submit("bad", func(context.Context) (any, error) { return nil, errors.New("boom") })
	p.Wait(context.Background(), "good")
	p.Wait(context.Background(), "bad")
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

	p.Submit("a", func(context.Context) (any, error) { return nil, nil })
	p.Wait(context.Background(), "a")
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
