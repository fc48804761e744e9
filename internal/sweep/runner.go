package sweep

import (
	"context"
	"encoding/json"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/jobs"
	"repro/internal/obs"
	"repro/internal/report"
	"repro/internal/rescache"
	"repro/internal/sim"
)

// Runner is the one compute path for canonical configurations, shared
// by single experiments and sweep cells, and the scheduler of sweeps on
// a shared jobs pool. A caller makes one counted cache lookup (Lookup);
// on a miss, Claim re-checks uncounted, then joins the live flight for
// the key or leads a new one. A flight publishes its bytes and releases
// its key on the pool worker before that worker's next job, so a key is
// computed at most once at a time across every sweep and experiment.
// A cancelling caller leaves (Leave); a flight's job is cancelled only
// when no other caller waits on it. Round scratch comes from the shared
// ScratchPool, so a sweep allocates working sets per worker, not per cell.
//
// Pool is required; everything else is optional.
type Runner struct {
	// Pool runs the flights. Required.
	Pool *jobs.Pool
	// Cache, when set, serves and stores computed results.
	Cache *rescache.Cache
	// Scratch, when set, recycles sim.RoundScratch across flights.
	Scratch *sim.ScratchPool
	// Observers are attached to every flight's run: the caller's metric
	// series and auditor. The zero value observes nothing.
	Observers sim.Observers
	// Timeout, when positive, bounds each flight's run; a flight that
	// exceeds it fails with context.DeadlineExceeded.
	Timeout time.Duration
	// CacheLookup, when set, observes every counted cache lookup.
	CacheLookup func(origin string, d time.Duration)
	// WindowWait, when set, observes time spent waiting for a slot in
	// the per-sweep in-flight window — the sweep-side saturation signal.
	WindowWait *obs.Histogram
	// OnDone, when set, is called once per terminal sweep cell; keep it
	// fast and do not call back into the runner. Other callers report
	// their own outcome from Settle, with Request.Done.
	OnDone func(Done)

	mu      sync.Mutex
	flights map[string]*flight // content key → live flight

	started   atomic.Uint64
	finished  atomic.Uint64
	run       atomic.Uint64
	cached    atomic.Uint64
	coalesced atomic.Uint64
	failed    atomic.Uint64
	canceled  atomic.Uint64
}

// Register exposes the runner's series on reg under prefix (for example
// "rfidd_sweep" yields rfidd_sweep_sweeps_started_total, ...).
func (r *Runner) Register(reg *obs.Registry, prefix string) {
	reg.CounterFunc(prefix+"_sweeps_started_total", "Sweeps accepted and scheduled.", r.started.Load)
	reg.CounterFunc(prefix+"_sweeps_finished_total", "Sweeps that reached a terminal state.", r.finished.Load)
	reg.CounterFunc(prefix+"_cells_run_total", "Sweep cells computed on the worker pool.", r.run.Load)
	reg.CounterFunc(prefix+"_cells_cached_total", "Sweep cells short-circuited by the result cache.", r.cached.Load)
	reg.CounterFunc(prefix+"_cells_coalesced_total", "Sweep cells folded onto an identical cell of the same sweep or a live computation of another caller.", r.coalesced.Load)
	reg.CounterFunc(prefix+"_cells_failed_total", "Sweep cells that failed permanently.", r.failed.Load)
	reg.CounterFunc(prefix+"_cells_canceled_total", "Sweep cells canceled before completion.", r.canceled.Load)
}

// Request is one caller's claim on the result of a configuration.
type Request struct {
	ID      string          // the pool job ID if this caller leads: exp-N or swp-N/cK
	Key     string          // rescache.ConfigKey of Config
	Config  sim.Config      // canonical
	Origin  string          // who asks: the Done origin
	Workers int             // round workers if this caller leads (0: GOMAXPROCS)
	Span    obs.SpanContext // parents a led flight's queue-wait and run spans
	Bus     *obs.Bus        // run telemetry if leading, and "job" events; closed when settled
	Start   func()          // called as a led flight starts running
	// Settle is called once with the caller's terminal snapshot: the
	// flight's when it lands, or a canceled one if the caller leaves a
	// flight that runs on. Required.
	Settle func(jobs.Snapshot)
}

// Done is one sweep cell's or experiment's terminal outcome. QueueWait
// and RunTime are zero unless this caller led the computation.
type Done struct {
	ID, Origin, Label  string // Label: the sweep cell's; "" for experiments
	Config             sim.Config
	Status             jobs.Status
	Cache              string // "hit", "miss" (led the computation) or "coalesced"
	Err                string
	QueueWait, RunTime time.Duration
}

// Done is the outcome of req settled with snap.
func (req Request) Done(snap jobs.Snapshot) Done {
	d := Done{ID: req.ID, Origin: req.Origin, Config: req.Config, Status: snap.Status, Cache: "coalesced"}
	if snap.Err != nil {
		d.Err = snap.Err.Error()
	}
	if snap.ID == req.ID { // its own job: it led
		d.Cache = "miss"
		d.QueueWait, d.RunTime = snap.QueueWait(), snap.RunTime()
	}
	return d
}

// flight is one live computation of a content key, run on the pool
// under its leader's job ID.
type flight struct {
	r       *Runner
	id, key string
	job     *jobs.Job // set in Claim under r.mu, before any caller sees the flight
	members []*Member // the callers still waiting on it; nil once it lands
}

// Member is one caller's place on a flight. It reads the flight's job,
// unless the caller left a flight that runs on.
type Member struct {
	req     Request
	f       *flight
	final   *jobs.Snapshot // a leaver's canceled snapshot, set under r.mu
	settled bool           // set under r.mu once Settle has returned
}

// Leads reports whether the flight runs under this caller's job ID.
func (m *Member) Leads() bool { return m.req.ID == m.f.id }

// Live reports whether the caller has yet to be settled.
func (m *Member) Live() bool { _, settled := m.state(); return !settled }

func (m *Member) state() (*jobs.Snapshot, bool) {
	m.f.r.mu.Lock()
	defer m.f.r.mu.Unlock()
	return m.final, m.settled
}

// Snapshot returns the caller's snapshot: a leaver's canceled one, else
// the flight's job's. An outcome reads as unfinished until Settle has
// returned, so whoever sees it also sees its effects.
func (m *Member) Snapshot() jobs.Snapshot {
	snap := m.f.job.Snapshot()
	final, settled := m.state()
	if final != nil {
		snap = *final
	}
	if !settled && snap.Status.Terminal() {
		snap.Status, snap.FinishedAt, snap.Result, snap.Err = jobs.StatusRunning, time.Time{}, nil, nil
		if snap.StartedAt.IsZero() {
			snap.Status = jobs.StatusQueued
		}
	}
	return snap
}

// Lookup is a caller's one counted cache lookup for key, attributed to
// origin.
func (r *Runner) Lookup(key, origin string) (json.RawMessage, bool) {
	if r.Cache == nil {
		return nil, false
	}
	start := time.Now()
	v, hit := r.Cache.GetOrigin(key, origin)
	if r.CacheLookup != nil {
		r.CacheLookup(origin, time.Since(start))
	}
	body, _ := v.(json.RawMessage)
	return body, hit
}

// Leader returns the job ID of the live flight computing key, or "".
func (r *Runner) Leader(key string) string {
	r.mu.Lock()
	defer r.mu.Unlock()
	if f := r.flights[key]; f != nil {
		return f.id
	}
	return ""
}

// Claim joins the live flight for req.Key, returns the bytes a flight
// published since the caller's lookup, or leads a new flight under
// req.ID. It fails with ctx's error once ctx is done, or with the
// pool's (ErrQueueFull: back off and Claim again). ctx does not bound
// the flight.
func (r *Runner) Claim(ctx context.Context, req Request) (*Member, json.RawMessage, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}
	if f := r.flights[req.Key]; f != nil {
		m := &Member{req: req, f: f}
		f.members = append(f.members, m)
		return m, nil, nil
	}
	if r.Cache != nil { // a flight publishes before it releases the key
		if v, ok := r.Cache.Peek(req.Key); ok {
			return nil, v.(json.RawMessage), nil
		}
	}
	f := &flight{r: r, id: req.ID, key: req.Key}
	m := &Member{req: req, f: f}
	f.members = []*Member{m}
	tctx := obs.WithSpan(context.Background(), req.Span)
	job, err := r.Pool.Submit(tctx, req.ID, r.execute(req), f.land)
	if err != nil {
		return nil, nil, err
	}
	f.job = job
	if r.flights == nil {
		r.flights = make(map[string]*flight)
	}
	r.flights[req.Key] = f
	return m, nil, nil
}

// Leave takes caller id, or a sweep's cells (id/cK), off their flights
// and reports how many left. A flight with other callers runs on, and
// the leavers are settled as canceled at once. A flight left empty
// releases its key at once, so the next caller leads afresh, and its job
// is cancelled; its leavers are settled when it lands.
func (r *Runner) Leave(id string) int {
	var settled []*Member
	n := 0
	r.mu.Lock()
	for key, f := range r.flights {
		var leaving, staying []*Member
		for _, m := range f.members {
			if m.req.ID == id || strings.HasPrefix(m.req.ID, id+"/") {
				leaving = append(leaving, m)
			} else {
				staying = append(staying, m)
			}
		}
		n += len(leaving)
		switch {
		case len(leaving) == 0:
		case len(staying) == 0:
			delete(r.flights, key)
			f.job.Cancel()
		default:
			f.members = staying
			snap := f.job.Snapshot()
			snap.Status, snap.Err, snap.Result, snap.FinishedAt = jobs.StatusCanceled, context.Canceled, nil, time.Now()
			for _, m := range leaving {
				m.final = &snap
			}
			settled = append(settled, leaving...)
		}
	}
	r.mu.Unlock()
	for _, m := range settled {
		m.settle(*m.final)
	}
	return n
}

// execute is the one compute function: the configuration run on the
// shared scratch pool under the runner's observers and the leader's
// bus, bounded by Timeout, and encoded once as the aggregate summary.
func (r *Runner) execute(req Request) jobs.Func {
	run := req.Config
	run.Workers = req.Workers
	return func(ctx context.Context) (any, error) {
		if r.Timeout > 0 {
			var cancel context.CancelFunc
			ctx, cancel = context.WithTimeout(ctx, r.Timeout)
			defer cancel()
		}
		if req.Start != nil {
			req.Start()
		}
		publishJob(req.Bus, req.ID, jobs.StatusQueued, jobs.StatusRunning)
		agg, err := sim.RunContextPool(r.Observers.Attach(obs.WithBus(ctx, req.Bus)), run, r.Scratch)
		if err != nil {
			return nil, err
		}
		b, err := json.Marshal(report.NewAggregateSummary(req.Config, agg))
		if err != nil {
			return nil, err
		}
		return json.RawMessage(b), nil
	}
}

// land is the flight's terminal path, run on the pool worker before its
// next job: publish the bytes, release the key, then settle every caller
// still on the flight.
func (f *flight) land(snap jobs.Snapshot) {
	r := f.r
	if body, ok := snap.Result.(json.RawMessage); ok && snap.Status == jobs.StatusDone && r.Cache != nil {
		r.Cache.Put(f.key, body)
	}
	r.mu.Lock()
	if r.flights[f.key] == f { // not a flight the callers left
		delete(r.flights, f.key)
	}
	members := f.members
	f.members = nil
	r.mu.Unlock()
	for _, m := range members {
		m.settle(snap)
	}
}

// settle hands the caller snap, marks it settled, then ends its job
// event stream.
func (m *Member) settle(snap jobs.Snapshot) {
	m.req.Settle(snap)
	m.f.r.mu.Lock()
	m.settled = true
	m.f.r.mu.Unlock()
	from := jobs.StatusRunning
	if snap.StartedAt.IsZero() {
		from = jobs.StatusQueued
	}
	publishJob(m.req.Bus, m.req.ID, from, snap.Status)
	m.req.Bus.Close()
}

// publishJob mirrors one job lifecycle change onto bus; a terminal one
// is an event-stream watcher's cue to hang up.
func publishJob(bus *obs.Bus, id string, from, to jobs.Status) {
	if bus != nil {
		bus.Publish("job", map[string]any{"id": id, "from": string(from), "to": string(to)})
	}
}
