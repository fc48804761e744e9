// Package jobs provides the experiment service's execution substrate: a
// bounded FIFO job queue drained by a fixed worker pool. Each job runs
// under its own context (per-job timeout, explicit cancellation, pool
// shutdown), transient failures are retried with exponential backoff,
// and shutdown drains in-flight and queued work before returning.
//
// The package is deliberately independent of the simulator: a job is any
// func(ctx) (any, error), so the pool is reusable for sweeps, floor
// inventories, or future workloads.
package jobs

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// Func is the unit of work a job executes. It must honour ctx: the pool
// cancels it on per-job timeout, explicit Cancel, or forced shutdown.
type Func func(ctx context.Context) (any, error)

// Status is a job's lifecycle state.
type Status string

// Job lifecycle states. Queued and Running are live; the rest are
// terminal.
const (
	StatusQueued   Status = "queued"
	StatusRunning  Status = "running"
	StatusDone     Status = "done"
	StatusFailed   Status = "failed"
	StatusCanceled Status = "canceled"
)

// Terminal reports whether the status is final.
func (s Status) Terminal() bool {
	return s == StatusDone || s == StatusFailed || s == StatusCanceled
}

// NoTimeout, passed to SubmitTracedTimeout, exempts one job from the
// pool-wide Options.Timeout: its attempts run until they finish, are
// canceled, or the pool is force-stopped.
const NoTimeout time.Duration = -1

// Submission errors.
var (
	// ErrQueueFull is returned by Submit when the bounded queue cannot
	// accept another job; callers should shed load (HTTP 429/503).
	ErrQueueFull = errors.New("jobs: queue full")
	// ErrClosed is returned by Submit after Shutdown has begun.
	ErrClosed = errors.New("jobs: pool closed")
	// ErrDuplicateID is returned by Submit when the ID is already taken.
	ErrDuplicateID = errors.New("jobs: duplicate job id")
)

// transientError marks an error as retryable.
type transientError struct{ err error }

func (e *transientError) Error() string { return e.err.Error() }
func (e *transientError) Unwrap() error { return e.err }

// Transient wraps err so the pool will retry the job (up to
// Options.Retries times with exponential backoff). A nil err returns
// nil.
func Transient(err error) error {
	if err == nil {
		return nil
	}
	return &transientError{err: err}
}

// IsTransient reports whether err is marked retryable.
func IsTransient(err error) bool {
	var t *transientError
	return errors.As(err, &t)
}

// Options configures a Pool. The zero value is usable: workers default
// to runtime.NumCPU(), queue depth to 64, no per-job timeout, no
// retries.
type Options struct {
	// Workers is the number of concurrent job runners (default NumCPU).
	Workers int
	// QueueDepth bounds the number of queued-but-not-running jobs
	// (default 64). Submit fails with ErrQueueFull beyond it.
	QueueDepth int
	// Timeout bounds each attempt's run time; 0 means no limit.
	// SubmitTracedTimeout can override it per job.
	Timeout time.Duration
	// Retries is how many times a transient failure is re-attempted.
	Retries int
	// Backoff is the delay before the first retry, doubling per attempt
	// (default 100 ms when Retries > 0).
	Backoff time.Duration
	// OnDone, if set, is called after a job reaches a terminal state
	// (from the worker goroutine; keep it fast).
	OnDone func(Snapshot)
	// OnTransition, if set, is called on every job lifecycle change,
	// including the initial enqueue (From == ""). It runs on the
	// submitting or worker goroutine; keep it fast and do not call back
	// into the pool.
	OnTransition func(Transition)
	// Logger, if set, receives structured worker lifecycle and job
	// terminal logs.
	Logger *slog.Logger
}

// Transition records one job lifecycle state change.
type Transition struct {
	ID       string
	From, To Status // From is "" for the initial enqueue
	Attempts int    // run attempts started when the transition happened
}

func (o Options) withDefaults() Options {
	if o.Workers <= 0 {
		o.Workers = runtime.NumCPU()
	}
	if o.QueueDepth <= 0 {
		o.QueueDepth = 64
	}
	if o.Backoff <= 0 {
		o.Backoff = 100 * time.Millisecond
	}
	return o
}

// Snapshot is a copy of a job's externally visible state.
type Snapshot struct {
	ID         string
	Status     Status
	Attempts   int // run attempts started (1 + retries so far)
	Result     any
	Err        error
	EnqueuedAt time.Time
	StartedAt  time.Time // zero until the first attempt starts
	FinishedAt time.Time // zero until terminal
}

// Latency is queue wait plus run time for finished jobs, and zero
// otherwise.
func (s Snapshot) Latency() time.Duration {
	if s.FinishedAt.IsZero() {
		return 0
	}
	return s.FinishedAt.Sub(s.EnqueuedAt)
}

// job is the pool-internal mutable state behind a Snapshot.
type job struct {
	id      string
	fn      Func
	sctx    obs.SpanContext // service-level trace position, captured at submit
	timeout time.Duration   // 0 = pool default, >0 = override, <0 = unlimited

	mu         sync.Mutex
	status     Status
	attempts   int
	result     any
	err        error
	enqueuedAt time.Time
	startedAt  time.Time
	finishedAt time.Time
	cancel     context.CancelFunc // non-nil while running
	canceled   bool               // Cancel requested (also covers queued jobs)
	done       chan struct{}      // closed on terminal state
}

func (j *job) snapshot() Snapshot {
	j.mu.Lock()
	defer j.mu.Unlock()
	return Snapshot{
		ID: j.id, Status: j.status, Attempts: j.attempts,
		Result: j.result, Err: j.err,
		EnqueuedAt: j.enqueuedAt, StartedAt: j.startedAt, FinishedAt: j.finishedAt,
	}
}

// Stats is a point-in-time view of pool load, for /metrics.
type Stats struct {
	Workers        int
	Busy           int // workers currently running a job
	QueueDepth     int // jobs waiting in the queue
	QueueHighWater int // deepest the queue has ever been
	Submitted      uint64
	Done           uint64
	Failed         uint64
	Canceled       uint64
	Retries        uint64  // re-attempts after transient failures
	BusySeconds    float64 // cumulative worker time spent running jobs
}

// Utilisation is Busy / Workers.
func (s Stats) Utilisation() float64 {
	if s.Workers == 0 {
		return 0
	}
	return float64(s.Busy) / float64(s.Workers)
}

// Pool is a fixed-size worker pool over a bounded FIFO queue. Create it
// with NewPool; it is safe for concurrent use.
type Pool struct {
	opts  Options
	queue chan *job
	wg    sync.WaitGroup

	// hardCtx cancels running jobs when a shutdown deadline expires.
	hardCtx  context.Context
	hardStop context.CancelFunc

	mu     sync.Mutex
	byID   map[string]*job
	order  []string // submission order, for List
	closed bool

	busy       atomic.Int64
	qHighWater atomic.Int64 // deepest queue observed at enqueue time
	busyNanos  atomic.Int64 // cumulative worker-busy time
	submitted  atomic.Uint64
	nDone      atomic.Uint64
	nFailed    atomic.Uint64
	nCanceled  atomic.Uint64
	nRetries   atomic.Uint64
}

// NewPool starts a pool with Options.Workers runner goroutines.
func NewPool(o Options) *Pool {
	o = o.withDefaults()
	hardCtx, hardStop := context.WithCancel(context.Background())
	p := &Pool{
		opts:     o,
		queue:    make(chan *job, o.QueueDepth),
		hardCtx:  hardCtx,
		hardStop: hardStop,
		byID:     make(map[string]*job),
	}
	for w := 0; w < o.Workers; w++ {
		p.wg.Add(1)
		go p.worker(w)
	}
	return p
}

// transition reports one lifecycle change to the OnTransition hook.
func (p *Pool) transition(id string, from, to Status, attempts int) {
	if p.opts.OnTransition != nil {
		p.opts.OnTransition(Transition{ID: id, From: from, To: to, Attempts: attempts})
	}
}

// Submit enqueues fn under the caller-chosen id. It fails fast with
// ErrQueueFull, ErrClosed, or ErrDuplicateID — it never blocks.
func (p *Pool) Submit(id string, fn Func) error {
	return p.SubmitTraced(context.Background(), id, fn)
}

// SubmitTraced is Submit carrying trace context: the span context on
// ctx (obs.WithSpan) is captured with the job, the time spent queued is
// recorded as a queue-wait span under it, and each run attempt executes
// under a child run span so lower layers (the simulator) can attach.
// Only the span context is retained — ctx's deadline and cancellation
// do NOT bound the job (use Cancel or Options.Timeout for that), so a
// request-scoped ctx is safe to pass.
func (p *Pool) SubmitTraced(ctx context.Context, id string, fn Func) error {
	return p.SubmitTracedTimeout(ctx, id, fn, 0)
}

// SubmitTracedTimeout is SubmitTraced with a per-job attempt timeout:
// 0 keeps the pool-wide Options.Timeout, a positive value replaces it
// for this job, and NoTimeout removes the bound entirely. Long-running
// job classes (streaming scenarios) share a pool whose Timeout is sized
// for one-shot experiments; the override lets them coexist without a
// second pool.
func (p *Pool) SubmitTracedTimeout(ctx context.Context, id string, fn Func, timeout time.Duration) error {
	if fn == nil {
		return fmt.Errorf("jobs: nil Func for job %q", id)
	}
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return ErrClosed
	}
	if _, dup := p.byID[id]; dup {
		p.mu.Unlock()
		return fmt.Errorf("%w: %q", ErrDuplicateID, id)
	}
	j := &job{
		id: id, fn: fn, timeout: timeout,
		sctx:       obs.SpanFrom(ctx),
		status:     StatusQueued,
		enqueuedAt: time.Now(),
		done:       make(chan struct{}),
	}
	select {
	case p.queue <- j:
	default:
		p.mu.Unlock()
		return ErrQueueFull
	}
	// Track the deepest the queue has been: saturation shows up here
	// long before submissions start bouncing with ErrQueueFull.
	depth := int64(len(p.queue))
	for {
		hw := p.qHighWater.Load()
		if depth <= hw || p.qHighWater.CompareAndSwap(hw, depth) {
			break
		}
	}
	p.byID[id] = j
	p.order = append(p.order, id)
	p.submitted.Add(1)
	p.mu.Unlock() // hooks run lock-free: they may take their own locks

	p.transition(id, "", StatusQueued, 0)
	return nil
}

// Get returns the snapshot of the job with the given id.
func (p *Pool) Get(id string) (Snapshot, bool) {
	p.mu.Lock()
	j, ok := p.byID[id]
	p.mu.Unlock()
	if !ok {
		return Snapshot{}, false
	}
	return j.snapshot(), true
}

// List returns snapshots of all known jobs in submission order.
func (p *Pool) List() []Snapshot {
	p.mu.Lock()
	js := make([]*job, 0, len(p.order))
	for _, id := range p.order {
		if j, ok := p.byID[id]; ok {
			js = append(js, j)
		}
	}
	p.mu.Unlock()
	out := make([]Snapshot, len(js))
	for i, j := range js {
		out[i] = j.snapshot()
	}
	return out
}

// Forget drops a terminal job from the pool's index, so callers that
// submit unbounded job streams (sweep cells) can bound the index after
// harvesting each result. Live jobs are refused. The submission-order
// list is compacted lazily once forgotten entries dominate it.
func (p *Pool) Forget(id string) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	j, ok := p.byID[id]
	if !ok {
		return false
	}
	j.mu.Lock()
	terminal := j.status.Terminal()
	j.mu.Unlock()
	if !terminal {
		return false
	}
	delete(p.byID, id)
	if len(p.order) > 16 && len(p.order) > 2*len(p.byID) {
		kept := p.order[:0]
		for _, oid := range p.order {
			if _, live := p.byID[oid]; live {
				kept = append(kept, oid)
			}
		}
		p.order = kept
	}
	return true
}

// Cancel requests cancellation of the job: a queued job is skipped when
// it reaches a worker, a running job has its context canceled. It
// reports whether the job exists and was still live.
func (p *Pool) Cancel(id string) bool {
	p.mu.Lock()
	j, ok := p.byID[id]
	p.mu.Unlock()
	if !ok {
		return false
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.status.Terminal() {
		return false
	}
	j.canceled = true
	if j.cancel != nil {
		j.cancel()
	}
	return true
}

// Wait blocks until the job reaches a terminal state or ctx expires.
func (p *Pool) Wait(ctx context.Context, id string) (Snapshot, error) {
	p.mu.Lock()
	j, ok := p.byID[id]
	p.mu.Unlock()
	if !ok {
		return Snapshot{}, fmt.Errorf("jobs: unknown job %q", id)
	}
	select {
	case <-j.done:
		return j.snapshot(), nil
	case <-ctx.Done():
		return j.snapshot(), ctx.Err()
	}
}

// Stats returns a point-in-time load snapshot.
func (p *Pool) Stats() Stats {
	return Stats{
		Workers:        p.opts.Workers,
		Busy:           int(p.busy.Load()),
		QueueDepth:     len(p.queue),
		QueueHighWater: int(p.qHighWater.Load()),
		Submitted:      p.submitted.Load(),
		Done:           p.nDone.Load(),
		Failed:         p.nFailed.Load(),
		Canceled:       p.nCanceled.Load(),
		Retries:        p.nRetries.Load(),
		BusySeconds:    time.Duration(p.busyNanos.Load()).Seconds(),
	}
}

// Shutdown stops accepting submissions and drains the queue: queued and
// in-flight jobs run to completion. If ctx expires first, running jobs
// are canceled and Shutdown returns ctx.Err() after they exit.
func (p *Pool) Shutdown(ctx context.Context) error {
	p.mu.Lock()
	if !p.closed {
		p.closed = true
		close(p.queue)
	}
	p.mu.Unlock()

	drained := make(chan struct{})
	go func() {
		p.wg.Wait()
		close(drained)
	}()
	select {
	case <-drained:
		return nil
	case <-ctx.Done():
		p.hardStop() // cancel running jobs, then wait for workers to exit
		<-drained
		return ctx.Err()
	}
}

func (p *Pool) worker(wid int) {
	defer p.wg.Done()
	if l := p.opts.Logger; l != nil {
		l.Info("worker started", "worker", wid)
	}
	n := 0
	for j := range p.queue {
		p.busy.Add(1)
		t0 := time.Now()
		p.run(j)
		p.busyNanos.Add(int64(time.Since(t0)))
		p.busy.Add(-1)
		n++
	}
	if l := p.opts.Logger; l != nil {
		l.Info("worker stopped", "worker", wid, "jobs", n)
	}
}

// run executes one job with retries and records its terminal state.
func (p *Pool) run(j *job) {
	j.mu.Lock()
	if j.canceled { // canceled while still queued
		j.status = StatusCanceled
		j.err = context.Canceled
		j.finishedAt = time.Now()
		close(j.done)
		j.mu.Unlock()
		if j.sctx.Valid() {
			j.sctx.Complete("jobs", "queue-wait", j.enqueuedAt, j.finishedAt,
				obs.SA("id", j.id), obs.SA("outcome", "canceled"))
		}
		p.nCanceled.Add(1)
		p.transition(j.id, StatusQueued, StatusCanceled, 0)
		p.finishLog(j)
		p.notify(j)
		return
	}
	runCtx, cancel := context.WithCancel(p.hardCtx)
	j.status = StatusRunning
	j.startedAt = time.Now()
	j.cancel = cancel
	j.mu.Unlock()
	defer cancel()
	if j.sctx.Valid() {
		j.sctx.Complete("jobs", "queue-wait", j.enqueuedAt, j.startedAt, obs.SA("id", j.id))
	}
	runSpan := j.sctx.Start("jobs", "run")
	runCtx = obs.WithSpan(runCtx, runSpan.Context())
	p.transition(j.id, StatusQueued, StatusRunning, 0)

	var result any
	var err error
	backoff := p.opts.Backoff
	for attempt := 0; ; attempt++ {
		j.mu.Lock()
		j.attempts++
		j.mu.Unlock()

		timeout := p.opts.Timeout
		switch {
		case j.timeout > 0:
			timeout = j.timeout
		case j.timeout < 0:
			timeout = 0
		}
		attemptCtx := runCtx
		var attemptCancel context.CancelFunc = func() {}
		if timeout > 0 {
			attemptCtx, attemptCancel = context.WithTimeout(runCtx, timeout)
		}
		result, err = j.fn(attemptCtx)
		attemptCancel()

		if err == nil || !IsTransient(err) || attempt >= p.opts.Retries || runCtx.Err() != nil {
			break
		}
		p.nRetries.Add(1)
		if runSpan.Live() {
			now := time.Now()
			runSpan.Context().Complete("jobs", "retry", now, now,
				obs.SA("id", j.id), obs.SA("attempt", attempt+1))
		}
		select {
		case <-time.After(backoff):
		case <-runCtx.Done():
		}
		backoff *= 2
	}

	j.mu.Lock()
	j.cancel = nil
	j.finishedAt = time.Now()
	switch {
	case err == nil:
		j.status = StatusDone
		j.result = result
		p.nDone.Add(1)
	case j.canceled || errors.Is(err, context.Canceled):
		j.status = StatusCanceled
		j.err = err
		p.nCanceled.Add(1)
	default:
		j.status = StatusFailed
		j.err = err
		p.nFailed.Add(1)
	}
	status := j.status
	attempts := j.attempts
	// Record the run span before the job turns terminal, so whoever sees
	// the terminal state also finds the complete run in the trace.
	if runSpan.Live() {
		runSpan.End(obs.SA("id", j.id), obs.SA("status", string(status)),
			obs.SA("attempts", attempts))
	}
	close(j.done)
	j.mu.Unlock()
	p.transition(j.id, StatusRunning, status, attempts)
	p.finishLog(j)
	p.notify(j)
}

// finishLog emits one structured log line for a job's terminal state.
func (p *Pool) finishLog(j *job) {
	l := p.opts.Logger
	if l == nil {
		return
	}
	snap := j.snapshot()
	attrs := []any{
		"id", snap.ID, "status", string(snap.Status),
		"attempts", snap.Attempts, "latency", snap.Latency(),
	}
	if snap.Err != nil {
		attrs = append(attrs, "err", snap.Err.Error())
	}
	if snap.Status == StatusFailed {
		l.Warn("job finished", attrs...)
		return
	}
	l.Info("job finished", attrs...)
}

// Register exposes the pool's load series on reg under prefix (for
// example "rfidd" yields rfidd_queue_depth, rfidd_jobs_done_total, ...),
// sampled from Stats at exposition time.
func (p *Pool) Register(reg *obs.Registry, prefix string) {
	reg.GaugeFunc(prefix+"_queue_depth", "Experiments waiting in the bounded FIFO queue.",
		func() float64 { return float64(len(p.queue)) })
	reg.GaugeFunc(prefix+"_workers", "Size of the worker pool.",
		func() float64 { return float64(p.opts.Workers) })
	reg.GaugeFunc(prefix+"_workers_busy", "Workers currently running an experiment.",
		func() float64 { return float64(p.busy.Load()) })
	reg.GaugeFunc(prefix+"_worker_utilisation", "Busy workers divided by pool size.",
		func() float64 { return p.Stats().Utilisation() })
	reg.CounterFunc(prefix+"_jobs_submitted_total", "Experiments accepted onto the queue.", p.submitted.Load)
	reg.CounterFunc(prefix+"_jobs_done_total", "Experiments completed successfully.", p.nDone.Load)
	reg.CounterFunc(prefix+"_jobs_failed_total", "Experiments that failed permanently.", p.nFailed.Load)
	reg.CounterFunc(prefix+"_jobs_canceled_total", "Experiments canceled before completion.", p.nCanceled.Load)
	reg.CounterFunc(prefix+"_jobs_retries_total", "Retry attempts after transient failures.", p.nRetries.Load)
	reg.GaugeFunc(prefix+"_queue_depth_high_water", "Deepest the queue has been since startup.",
		func() float64 { return float64(p.qHighWater.Load()) })
	reg.CounterFloatFunc(prefix+"_worker_busy_seconds_total", "Cumulative worker time spent running experiments.",
		func() float64 { return time.Duration(p.busyNanos.Load()).Seconds() })
}

func (p *Pool) notify(j *job) {
	if p.opts.OnDone != nil {
		p.opts.OnDone(j.snapshot())
	}
}
