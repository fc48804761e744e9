// Package jobs provides the experiment service's execution substrate: a
// bounded FIFO job queue drained by a fixed worker pool. Each job runs
// under its own context (explicit cancellation, pool shutdown), and
// shutdown drains in-flight and queued work before returning. A job that
// needs a time bound applies it itself.
//
// Submit returns a *Job handle, and the handle is the only way to reach
// the job: the pool keeps no index, and holds a job only while it is
// queued or running. Whoever keeps the handle keeps the job's snapshot;
// a terminal job drops its function and finish hook, so a kept handle
// pins nothing else.
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
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// Func is the unit of work a job executes. It must honour ctx: the pool
// cancels it on explicit Cancel or forced shutdown.
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

// Submission errors.
var (
	// ErrQueueFull is returned by Submit when the bounded queue cannot
	// accept another job; callers should shed load (HTTP 429/503).
	ErrQueueFull = errors.New("jobs: queue full")
	// ErrClosed is returned by Submit after Shutdown has begun.
	ErrClosed = errors.New("jobs: pool closed")
)

// Options configures a Pool. The zero value is usable: workers default
// to runtime.GOMAXPROCS(0), queue depth to 64.
type Options struct {
	// Workers is the number of concurrent job runners (default GOMAXPROCS).
	Workers int
	// QueueDepth bounds the number of queued-but-not-running jobs
	// (default 64). Submit fails with ErrQueueFull beyond it.
	QueueDepth int
	// OnDone, if set, is called after a job reaches a terminal state
	// (from the worker goroutine; keep it fast).
	OnDone func(Snapshot)
	// OnTransition, if set, is called on every job lifecycle change,
	// including the initial enqueue (From == ""), which is reported
	// before the job can start. It runs on the submitting or worker
	// goroutine; keep it fast and do not call back into the pool.
	OnTransition func(Transition)
	// Logger, if set, receives structured worker lifecycle and job
	// terminal logs.
	Logger *slog.Logger
}

// Transition records one job lifecycle state change.
type Transition struct {
	ID       string
	From, To Status // From is "" for the initial enqueue
}

func (o Options) withDefaults() Options {
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	if o.QueueDepth <= 0 {
		o.QueueDepth = 64
	}
	return o
}

// Snapshot is a copy of a job's externally visible state.
type Snapshot struct {
	ID         string
	Status     Status
	Result     any
	Err        error
	EnqueuedAt time.Time
	StartedAt  time.Time // zero until the job starts
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

// QueueWait is the time from enqueue to the job's start, and zero for a
// job that never started.
func (s Snapshot) QueueWait() time.Duration {
	if s.StartedAt.IsZero() {
		return 0
	}
	return s.StartedAt.Sub(s.EnqueuedAt)
}

// RunTime is the time from the job's start to the terminal state, and
// zero until both are set.
func (s Snapshot) RunTime() time.Duration {
	if s.StartedAt.IsZero() || s.FinishedAt.IsZero() {
		return 0
	}
	return s.FinishedAt.Sub(s.StartedAt)
}

// Job is the handle of one submitted job. Its id labels spans, logs and
// transitions; the pool does not look jobs up by it.
type Job struct {
	id     string
	fn     Func            // nil once terminal
	sctx   obs.SpanContext // service-level trace position, captured at submit
	finish func(Snapshot)  // per-job terminal hook; nil when none, or once terminal

	mu         sync.Mutex
	status     Status
	result     any
	err        error
	enqueuedAt time.Time
	startedAt  time.Time
	finishedAt time.Time
	cancel     context.CancelFunc // non-nil while running
	canceled   bool               // Cancel requested (also covers queued jobs)
	done       chan struct{}      // closed on terminal state
}

// Snapshot returns a copy of the job's externally visible state.
func (j *Job) Snapshot() Snapshot {
	j.mu.Lock()
	defer j.mu.Unlock()
	return Snapshot{
		ID: j.id, Status: j.status, Result: j.result, Err: j.err,
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
	Panics         uint64  // jobs that panicked (and failed)
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
	queue chan *Job
	wg    sync.WaitGroup

	// hardCtx cancels running jobs when a shutdown deadline expires.
	hardCtx  context.Context
	hardStop context.CancelFunc

	mu     sync.Mutex // guards closed against a send on the closed queue
	closed bool

	busy       atomic.Int64
	qHighWater atomic.Int64 // deepest queue observed at enqueue time
	busyNanos  atomic.Int64 // cumulative worker-busy time
	submitted  atomic.Uint64
	nDone      atomic.Uint64
	nFailed    atomic.Uint64
	nCanceled  atomic.Uint64
	nPanics    atomic.Uint64
}

// NewPool starts a pool with Options.Workers runner goroutines.
func NewPool(o Options) *Pool {
	o = o.withDefaults()
	hardCtx, hardStop := context.WithCancel(context.Background())
	p := &Pool{
		opts:     o,
		queue:    make(chan *Job, o.QueueDepth),
		hardCtx:  hardCtx,
		hardStop: hardStop,
	}
	for w := 0; w < o.Workers; w++ {
		p.wg.Add(1)
		go p.worker(w)
	}
	return p
}

// transition reports one lifecycle change to the OnTransition hook.
func (p *Pool) transition(id string, from, to Status) {
	if p.opts.OnTransition != nil {
		p.opts.OnTransition(Transition{ID: id, From: from, To: to})
	}
}

// Submit enqueues fn under the caller-chosen id label and returns the
// job's handle. It fails fast with ErrQueueFull or ErrClosed — it never
// blocks.
//
// The span context on ctx (obs.WithSpan) is captured with the job: the
// time spent queued is recorded as a queue-wait span under it, and fn
// runs under a child run span so lower layers (the simulator) can
// attach. Only the span context is retained — ctx's deadline and
// cancellation do NOT bound the job (use Cancel, or bound it inside
// fn), so a request-scoped ctx is safe to pass.
//
// finish, if non-nil, receives the job's terminal snapshot on the
// worker, on every terminal path (done, failed, panicked, canceled while
// queued or running), after the terminal transition and Options.OnDone,
// and before the worker takes its next job. It must not call back into
// the pool.
func (p *Pool) Submit(ctx context.Context, id string, fn Func, finish func(Snapshot)) (*Job, error) {
	if fn == nil {
		return nil, fmt.Errorf("jobs: nil Func for job %q", id)
	}
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil, ErrClosed
	}
	j := &Job{
		id: id, fn: fn, finish: finish,
		sctx:       obs.SpanFrom(ctx),
		status:     StatusQueued,
		enqueuedAt: time.Now(),
		done:       make(chan struct{}),
	}
	// A worker takes j.mu before anything else, so holding it until the
	// enqueue is reported keeps queued→running behind it.
	j.mu.Lock()
	defer j.mu.Unlock()
	select {
	case p.queue <- j:
	default:
		p.mu.Unlock()
		return nil, ErrQueueFull
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
	p.submitted.Add(1)
	p.mu.Unlock() // hooks run without the pool lock: they may take their own locks

	p.transition(id, "", StatusQueued)
	return j, nil
}

// Cancel requests cancellation of the job: a queued job is skipped when
// it reaches a worker, a running job has its context canceled. It
// reports whether the job was still live.
func (j *Job) Cancel() bool {
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
func (j *Job) Wait(ctx context.Context) (Snapshot, error) {
	select {
	case <-j.done:
		return j.Snapshot(), nil
	case <-ctx.Done():
		return j.Snapshot(), ctx.Err()
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
		Panics:         p.nPanics.Load(),
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

// run executes one job and records its terminal state.
func (p *Pool) run(j *Job) {
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
		p.transition(j.id, StatusQueued, StatusCanceled)
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
	p.transition(j.id, StatusQueued, StatusRunning)

	result, err := p.call(runCtx, j)

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
	// Record the run span before the job turns terminal, so whoever sees
	// the terminal state also finds the complete run in the trace.
	if runSpan.Live() {
		runSpan.End(obs.SA("id", j.id), obs.SA("status", string(status)))
	}
	close(j.done)
	j.mu.Unlock()
	p.transition(j.id, StatusRunning, status)
	p.finishLog(j)
	p.notify(j)
}

// call runs the job's function. A panic becomes an error carrying the
// panic value and stack, which fails the job, so the worker goes on to
// its next job.
func (p *Pool) call(ctx context.Context, j *Job) (result any, err error) {
	defer func() {
		if v := recover(); v != nil {
			p.nPanics.Add(1)
			result, err = nil, fmt.Errorf("jobs: job %q panicked: %v\n%s", j.id, v, debug.Stack())
		}
	}()
	return j.fn(ctx)
}

// finishLog emits one structured log line for a job's terminal state.
func (p *Pool) finishLog(j *Job) {
	l := p.opts.Logger
	if l == nil {
		return
	}
	snap := j.Snapshot()
	attrs := []any{
		"id", snap.ID, "status", string(snap.Status), "latency", snap.Latency(),
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
	reg.CounterFunc(prefix+"_jobs_panics_total", "Jobs that panicked; they failed.", p.nPanics.Load)
	reg.GaugeFunc(prefix+"_queue_depth_high_water", "Deepest the queue has been since startup.",
		func() float64 { return float64(p.qHighWater.Load()) })
	reg.CounterFloatFunc(prefix+"_worker_busy_seconds_total", "Cumulative worker time spent running experiments.",
		func() float64 { return time.Duration(p.busyNanos.Load()).Seconds() })
}

// notify runs the pool-wide OnDone, then the job's finish hook, then
// drops the job's closures: a kept handle pins only its snapshot.
func (p *Pool) notify(j *Job) {
	snap := j.Snapshot()
	if p.opts.OnDone != nil {
		p.opts.OnDone(snap)
	}
	if j.finish != nil {
		j.finish(snap)
	}
	j.fn, j.finish = nil, nil
}
