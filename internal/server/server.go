// Package server exposes the simulator as a multi-tenant experiment
// service over HTTP/JSON. Submissions are enqueued on a bounded worker
// pool (internal/jobs); completed aggregates are stored in a
// content-addressed LRU cache (internal/rescache) keyed by the canonical
// configuration hash, so resubmitting an identical experiment is served
// byte-identically without recomputation. Identical configurations
// submitted while the first is still live coalesce onto the same
// experiment instead of queueing twice.
//
// API:
//
//	POST   /v1/experiments              {"config": {...sim.Config...}} → 202 (queued) or 200 (cached/coalesced)
//	GET    /v1/experiments              list of experiment summaries (?status= filters by lifecycle state)
//	GET    /v1/experiments/{id}         status and, when done, the aggregate
//	GET    /v1/experiments/{id}/trace   run trace (Chrome trace-event JSON; ?format=jsonl for JSONL)
//	GET    /v1/experiments/{id}/events  live telemetry stream (text/event-stream; Last-Event-ID resume)
//	GET    /v1/audit                    shadow-oracle audit report (when Options.EnableAudit)
//	DELETE /v1/experiments/{id}         cancel a queued or running experiment
//	POST   /v1/sweeps                   {"spec": {...sweep.Spec...}} → 202 with the sweep record
//	GET    /v1/sweeps                   list of sweep summaries
//	GET    /v1/sweeps/{id}              sweep status and cell counts
//	GET    /v1/sweeps/{id}/cells        per-cell records (?status= filters, ?results=1 embeds results)
//	GET    /v1/sweeps/{id}/report       merged paper-style output (?format=table|csv)
//	GET    /v1/sweeps/{id}/events       per-cell progress stream (text/event-stream)
//	DELETE /v1/sweeps/{id}              cancel a running sweep
//	POST   /v1/scenarios                {"spec": {...scenario.Spec...}} → 202 with the scenario record
//	GET    /v1/scenarios                list of scenario summaries (?status= filters)
//	GET    /v1/scenarios/{id}           status, latest progress and, when done, the result
//	GET    /v1/scenarios/{id}/events    per-epoch progress stream (text/event-stream)
//	DELETE /v1/scenarios/{id}           cancel a queued or running scenario
//	GET    /v1/traces                   retained service-level trace summaries
//	GET    /v1/traces/{id}              joined trace: request → job/sweep → cell spans plus
//	                                    linked per-run ring traces (?format=jsonl for JSONL)
//	GET    /healthz                     liveness probe
//	GET    /metrics                     Prometheus text format (single obs registry walk)
//	GET    /debug/statusz               self-contained HTML service snapshot
//	GET    /debug/trace                 pool worker-lifecycle trace (when tracing enabled)
//	GET    /debug/pprof/...             net/http/pprof (when Options.EnablePprof)
//
// Every request that creates work (or carries an X-Trace-Id header)
// runs under a service-level trace: the middleware assigns or adopts
// the ID, echoes it in the X-Trace-Id response header, and the span
// tree — request, queue wait, run, sweep, cells, simulator rounds —
// is exported by GET /v1/traces/{id}.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/jobs"
	"repro/internal/obs"
	"repro/internal/obs/audit"
	"repro/internal/obs/slo"
	"repro/internal/obs/tsdb"
	"repro/internal/report"
	"repro/internal/rescache"
	"repro/internal/sim"
	"repro/internal/sweep"
)

// Options sizes the service. Zero fields take the documented defaults.
type Options struct {
	// Workers is the worker-pool size (default runtime.NumCPU via jobs).
	Workers int
	// QueueDepth bounds the backlog of queued experiments (default 64).
	QueueDepth int
	// CacheSize bounds the result cache, in entries (default 1024).
	CacheSize int
	// JobTimeout bounds one experiment's run time; 0 means unlimited.
	JobTimeout time.Duration
	// RecordCap bounds the in-memory experiment index; the oldest
	// terminal records are pruned beyond it (default 4096).
	RecordCap int
	// TraceCapacity bounds each experiment's trace ring buffer, in
	// events (default 4096; negative disables run tracing).
	TraceCapacity int
	// TraceStoreTraces bounds how many service-level traces the span
	// store retains (default 256; negative disables the span store —
	// X-Trace-Id still propagates, but no spans are recorded).
	TraceStoreTraces int
	// TraceStoreSpans bounds the spans retained per trace (default
	// 4096; excess spans are dropped and counted, roots are kept).
	TraceStoreSpans int
	// WideEvents bounds the ring of recent wide events rendered on
	// /debug/statusz (default 128).
	WideEvents int
	// Logger, if set, receives structured request logs (method, path,
	// status, latency, experiment id, cache hit) and worker lifecycle
	// logs. Nil disables logging.
	Logger *slog.Logger
	// EnablePprof mounts net/http/pprof under /debug/pprof/.
	EnablePprof bool

	// EventHistory bounds each experiment's telemetry event ring, in
	// events, for SSE Last-Event-ID replay (default 256; negative
	// disables event streaming).
	EventHistory int
	// EventBuffer bounds how far one SSE subscriber may lag, in
	// events, before it is dropped as a slow consumer (default 256).
	EventBuffer int
	// HeartbeatInterval paces SSE comment heartbeats so idle streams
	// stay provably alive through proxies (default 15s).
	HeartbeatInterval time.Duration
	// SweepMaxCells caps how many cells one POST /v1/sweeps may expand
	// to (default sweep.DefaultMaxCells); client specs asking for more
	// are clamped to it.
	SweepMaxCells int
	// SweepRecordCap bounds the in-memory sweep index; the oldest
	// terminal sweeps are pruned beyond it (default 256).
	SweepRecordCap int
	// ScenarioRecordCap bounds the in-memory scenario index; the oldest
	// terminal scenarios are pruned beyond it (default 64).
	ScenarioRecordCap int
	// EnableAudit turns on shadow-oracle verdict auditing for every
	// experiment (sim.InstrumentAudit is process-global: the most
	// recently constructed audit-enabled Server receives the verdicts).
	// The confusion matrix lands on /metrics and GET /v1/audit.
	EnableAudit bool
	// AuditExemplars bounds the audit exemplar ring (default 64).
	AuditExemplars int

	// HistoryInterval paces the metrics-history sampler (default 1s;
	// negative disables history and SLO evaluation entirely — the
	// instrumented paths then cost one atomic load, like spans).
	HistoryInterval time.Duration
	// HistoryRetention bounds how far back the history rings reach
	// (default 16m, covering the default SLO slow window).
	HistoryRetention time.Duration
	// SLOConfig is the burn-rate alerting policy evaluated over the
	// history store; nil takes slo.DefaultConfig(). Ignored when
	// history is disabled.
	SLOConfig *slo.Config
	// AlertEventHistory bounds the alert bus's replay ring (default 256).
	AlertEventHistory int
}

func (o Options) withDefaults() Options {
	if o.CacheSize <= 0 {
		o.CacheSize = 1024
	}
	if o.RecordCap <= 0 {
		o.RecordCap = 4096
	}
	if o.TraceCapacity == 0 {
		o.TraceCapacity = 4096
	}
	if o.TraceStoreTraces == 0 {
		o.TraceStoreTraces = 256
	}
	if o.TraceStoreSpans <= 0 {
		o.TraceStoreSpans = 4096
	}
	if o.WideEvents <= 0 {
		o.WideEvents = 128
	}
	if o.EventHistory == 0 {
		o.EventHistory = 256
	}
	if o.EventBuffer <= 0 {
		o.EventBuffer = 256
	}
	if o.HeartbeatInterval <= 0 {
		o.HeartbeatInterval = 15 * time.Second
	}
	if o.AuditExemplars <= 0 {
		o.AuditExemplars = 64
	}
	if o.SweepMaxCells <= 0 || o.SweepMaxCells > sweep.HardMaxCells {
		o.SweepMaxCells = sweep.DefaultMaxCells
	}
	if o.SweepRecordCap <= 0 {
		o.SweepRecordCap = 256
	}
	if o.ScenarioRecordCap <= 0 {
		o.ScenarioRecordCap = 64
	}
	if o.HistoryInterval == 0 {
		o.HistoryInterval = time.Second
	}
	if o.HistoryRetention <= 0 {
		o.HistoryRetention = 16 * time.Minute
	}
	if o.AlertEventHistory <= 0 {
		o.AlertEventHistory = 256
	}
	return o
}

// SubmitRequest is the POST /v1/experiments body.
type SubmitRequest struct {
	Config sim.Config `json:"config"`
}

// ExperimentResponse is the JSON shape of one experiment, returned by
// the submit, get and list endpoints (list omits Result).
type ExperimentResponse struct {
	ID     string     `json:"id"`
	Status string     `json:"status"`
	Cached bool       `json:"cached"`
	Config sim.Config `json:"config"`

	Attempts   int    `json:"attempts,omitempty"`
	EnqueuedAt string `json:"enqueued_at,omitempty"`
	StartedAt  string `json:"started_at,omitempty"`
	FinishedAt string `json:"finished_at,omitempty"`

	// Result is the report.AggregateSummary encoding, verbatim. It is
	// byte-identical for identical configurations (the cache stores these
	// exact bytes).
	Result json.RawMessage `json:"result,omitempty"`
	Error  string          `json:"error,omitempty"`
}

// ListResponse is the GET /v1/experiments body.
type ListResponse struct {
	Experiments []ExperimentResponse `json:"experiments"`
}

// errorResponse is the uniform error body.
type errorResponse struct {
	Error string `json:"error"`
}

// experiment is the server-side record behind an ID. Live experiments
// delegate their state to the pool job with the same ID; cache-served
// ones are terminal at creation.
type experiment struct {
	id        string
	key       string
	cfg       sim.Config // canonical form
	cached    bool
	result    json.RawMessage // set for cache-served records
	createdAt time.Time
	traceID   string      // service-level trace this record belongs to; "" when untraced
	tr        *obs.Tracer // per-run trace; nil for cached records or when disabled
	bus       *obs.Bus    // live telemetry; nil for cached records or when disabled
}

// Server is the experiment service. Create it with New and expose
// Handler on an http.Server.
type Server struct {
	opts      Options
	pool      *jobs.Pool
	cache     *rescache.Cache
	mux       *http.ServeMux
	reg       *obs.Registry
	lat       *obs.Histogram
	poolTrace *obs.Tracer    // worker lifecycle spans; nil when tracing disabled
	auditor   *audit.Auditor // shadow-oracle auditor; nil unless EnableAudit
	evDrops   *obs.Counter   // slow event subscribers dropped, all experiments
	logger    *slog.Logger
	startedAt time.Time

	spans      *obs.TraceStore // service-level span store; nil when disabled
	wide       *wideLog        // recent wide events, for /debug/statusz
	jobLat     originLat       // latency decomposition, single submissions
	sweepLat   originLat       // latency decomposition, sweep cells
	windowWait *obs.Histogram  // sweep in-flight-window wait

	hist        *tsdb.Store           // metrics history; nil when disabled
	slos        *slo.Engine           // burn-rate alerting; nil when disabled
	alertBus    *obs.Bus              // alert transition events; nil when disabled
	runstats    *obs.RuntimeCollector // goroutines/heap/GC series
	samplerStop chan struct{}         // closes to stop the sampler goroutine
	samplerOnce sync.Once

	sweeps *sweep.Runner

	// testHookAfterLookup, when set, runs in handleSubmit between its
	// cache lookup and taking mu, so a test can finish a job there.
	testHookAfterLookup func()

	mu          sync.Mutex
	byID        map[string]*experiment
	order       []string
	inflight    map[string]string // cache key → live experiment id
	nextID      uint64
	sweepByID   map[string]*sweep.Sweep
	sweepOrder  []string
	nextSweepID uint64
	scenByID    map[string]*scenarioRec
	scenOrder   []string
	nextScenID  uint64

	records       atomic.Int64  // len(byID) mirror for the lock-free gauge
	sweepRecords  atomic.Int64  // len(sweepByID) mirror, same reason
	scenRecords   atomic.Int64  // len(scenByID) mirror, same reason
	expTraceDrops atomic.Uint64 // span drops folded in from finished experiment tracers
}

// New builds a Server and starts its worker pool.
func New(o Options) *Server {
	o = o.withDefaults()
	s := &Server{
		opts:      o,
		cache:     rescache.New(o.CacheSize),
		byID:      make(map[string]*experiment),
		inflight:  make(map[string]string),
		sweepByID: make(map[string]*sweep.Sweep),
		scenByID:  make(map[string]*scenarioRec),
		reg:       obs.NewRegistry(),
		logger:    o.Logger,
		startedAt: time.Now(),
	}
	if o.TraceCapacity > 0 {
		s.poolTrace = obs.NewTracer(o.TraceCapacity)
	}
	if o.TraceStoreTraces > 0 {
		s.spans = obs.NewTraceStore(o.TraceStoreTraces, o.TraceStoreSpans)
	}
	s.wide = newWideLog(o.WideEvents)
	if o.EnableAudit {
		s.auditor = audit.New(s.reg, audit.Options{ExemplarCap: o.AuditExemplars})
		sim.InstrumentAudit(s.auditor)
	}
	s.pool = jobs.NewPool(jobs.Options{
		Workers:      o.Workers,
		QueueDepth:   o.QueueDepth,
		Timeout:      o.JobTimeout,
		OnDone:       s.onJobDone,
		OnTransition: s.onTransition,
		Tracer:       s.poolTrace,
		Logger:       o.Logger,
	})
	s.sweeps = &sweep.Runner{
		Pool:       s.pool,
		Cache:      s.cache,
		Origin:     originSweep,
		Scratch:    &sim.ScratchPool{},
		OnCellDone: s.onCellDone,
		// CacheLookup and WindowWait are wired in registerMetrics, where
		// the histograms are created.
	}
	s.registerMetrics()
	s.startHistory()
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("POST /v1/experiments", s.handleSubmit)
	s.mux.HandleFunc("GET /v1/experiments", s.handleList)
	s.mux.HandleFunc("GET /v1/experiments/{id}", s.handleGet)
	s.mux.HandleFunc("GET /v1/experiments/{id}/trace", s.handleTrace)
	s.mux.HandleFunc("GET /v1/experiments/{id}/events", s.handleEvents)
	s.mux.HandleFunc("GET /v1/audit", s.handleAudit)
	s.mux.HandleFunc("DELETE /v1/experiments/{id}", s.handleCancel)
	s.mux.HandleFunc("POST /v1/sweeps", s.handleSweepSubmit)
	s.mux.HandleFunc("GET /v1/sweeps", s.handleSweepList)
	s.mux.HandleFunc("GET /v1/sweeps/{id}", s.handleSweepGet)
	s.mux.HandleFunc("GET /v1/sweeps/{id}/cells", s.handleSweepCells)
	s.mux.HandleFunc("GET /v1/sweeps/{id}/report", s.handleSweepReport)
	s.mux.HandleFunc("GET /v1/sweeps/{id}/events", s.handleSweepEvents)
	s.mux.HandleFunc("DELETE /v1/sweeps/{id}", s.handleSweepCancel)
	s.mux.HandleFunc("POST /v1/scenarios", s.handleScenarioSubmit)
	s.mux.HandleFunc("GET /v1/scenarios", s.handleScenarioList)
	s.mux.HandleFunc("GET /v1/scenarios/{id}", s.handleScenarioGet)
	s.mux.HandleFunc("GET /v1/scenarios/{id}/events", s.handleScenarioEvents)
	s.mux.HandleFunc("DELETE /v1/scenarios/{id}", s.handleScenarioCancel)
	s.mux.HandleFunc("GET /v1/traces", s.handleTraces)
	s.mux.HandleFunc("GET /v1/traces/{id}", s.handleTraceGet)
	s.mux.HandleFunc("GET /v1/metrics/history", s.handleMetricsHistory)
	s.mux.HandleFunc("GET /v1/alerts", s.handleAlerts)
	s.mux.HandleFunc("GET /v1/alerts/events", s.handleAlertEvents)
	s.mux.HandleFunc("GET /healthz", s.handleHealth)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /debug/statusz", s.handleStatusz)
	if s.poolTrace != nil {
		s.mux.HandleFunc("GET /debug/trace", s.handlePoolTrace)
	}
	if o.EnablePprof {
		s.mux.HandleFunc("GET /debug/pprof/", pprof.Index)
		s.mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
		s.mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
		s.mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
		s.mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	}
	return s
}

// Registry returns the server's metrics registry, so the embedding
// process can register additional series on the same /metrics walk.
func (s *Server) Registry() *obs.Registry { return s.reg }

// Handler returns the service's HTTP handler: the mux wrapped in the
// trace-context middleware and, when a logger is configured, the
// request logger.
func (s *Server) Handler() http.Handler {
	h := s.traceHandler(s.mux)
	if s.logger == nil {
		return h
	}
	return s.loggingHandler(h)
}

// statusRecorder captures the response code for request logs.
type statusRecorder struct {
	http.ResponseWriter
	status int
}

func (r *statusRecorder) WriteHeader(code int) {
	r.status = code
	r.ResponseWriter.WriteHeader(code)
}

// Flush forwards to the underlying writer so streaming responses
// (the SSE event endpoint) work through the logging wrapper; the
// embedded interface alone would hide the Flusher method set.
func (r *statusRecorder) Flush() {
	if f, ok := r.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// loggingHandler emits one structured log line per request.
func (s *Server) loggingHandler(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rec := &statusRecorder{ResponseWriter: w, status: http.StatusOK}
		start := time.Now()
		next.ServeHTTP(rec, r)
		s.logger.Info("request",
			"method", r.Method, "path", r.URL.Path,
			"status", rec.status, "latency", time.Since(start))
	})
}

// onTransition bumps the per-state-transition counter and mirrors the
// change into the experiment's run trace. The initial enqueue
// (From == "") fires on the submitting goroutine while s.mu is held,
// so only lock-free work happens for it; handleSubmit records the
// enqueue instant itself.
func (s *Server) onTransition(t jobs.Transition) {
	from := string(t.From)
	if from == "" {
		from = "new"
	}
	s.reg.Counter("rfidd_job_transitions_total",
		"Job lifecycle transitions by from/to state.",
		obs.L("from", from), obs.L("to", string(t.To))).Inc()
	if t.From == "" {
		return
	}
	s.mu.Lock()
	exp, ok := s.byID[t.ID]
	s.mu.Unlock()
	if !ok {
		return
	}
	if exp.tr != nil {
		exp.tr.Instant("jobs", "state:"+string(t.To),
			0, map[string]any{"from": from, "attempts": t.Attempts})
	}
	// Mirror the lifecycle onto the experiment's event stream; the
	// terminal transition is the watcher's cue to hang up.
	exp.bus.Publish("job", map[string]any{
		"id": t.ID, "from": from, "to": string(t.To), "attempts": t.Attempts,
	})
}

// Shutdown stops the history sampler, then stops accepting work and
// drains queued and running experiments; see jobs.Pool.Shutdown for
// deadline semantics.
func (s *Server) Shutdown(ctx context.Context) error {
	s.stopHistory()
	return s.pool.Shutdown(ctx)
}

// onJobDone records latency and, on success, publishes the result bytes
// to the cache and then releases the in-flight coalescing slot. The
// order matters: a duplicate submission that finds no in-flight job
// under mu re-checks the cache, so it must find the bytes there.
func (s *Server) onJobDone(snap jobs.Snapshot) {
	s.lat.Observe(snap.Latency().Seconds())

	s.mu.Lock()
	exp, ok := s.byID[snap.ID]
	s.mu.Unlock()
	if !ok {
		return // a sweep cell: the sweep runner's OnCellDone hook covers it
	}
	if snap.Status == jobs.StatusDone {
		if body, isRaw := snap.Result.(json.RawMessage); isRaw {
			s.cache.Put(exp.key, body)
		}
	}
	s.mu.Lock()
	if s.inflight[exp.key] == snap.ID {
		delete(s.inflight, exp.key)
	}
	s.mu.Unlock()
	var qw, rt time.Duration
	if !snap.StartedAt.IsZero() {
		qw = snap.StartedAt.Sub(snap.EnqueuedAt)
		if !snap.FinishedAt.IsZero() {
			rt = snap.FinishedAt.Sub(snap.StartedAt)
		}
	}
	s.jobLat.queueWait.Observe(qw.Seconds())
	s.jobLat.run.Observe(rt.Seconds())
	s.emitWide(wideOfJob(exp, snap, qw, rt))
	if snap.Status == jobs.StatusFailed {
		s.hist.Annotate("job", exp.id+" failed") // nil-safe when history is off
	}
	// The run is over: fold its tracer's overflow into the shared drop
	// counter and retire the event stream (subscribers drain the replay
	// ring, then their channels close).
	s.expTraceDrops.Add(exp.tr.Dropped())
	exp.bus.Close()
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var req SubmitRequest
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: "bad request body: " + err.Error()})
		return
	}
	if err := req.Config.Validate(); err != nil {
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: err.Error()})
		return
	}
	cfg := req.Config.Canonical()
	key, err := rescache.ConfigKey(cfg)
	if err != nil {
		writeJSON(w, http.StatusInternalServerError, errorResponse{Error: err.Error()})
		return
	}
	sc := obs.SpanFrom(r.Context()) // request span, from the trace middleware

	// The single GetOrigin call is the submission's one counted lookup;
	// the re-check below must not count again.
	lookStart := time.Now()
	val, hit := s.cache.GetOrigin(key, originJob)
	s.jobLat.lookup.Observe(time.Since(lookStart).Seconds())
	if s.testHookAfterLookup != nil {
		s.testHookAfterLookup()
	}

	s.mu.Lock()
	if !hit {
		// Coalesce onto a live identical experiment if one exists.
		if liveID, ok := s.inflight[key]; ok {
			if exp, ok := s.byID[liveID]; ok {
				resp := s.responseOfLocked(exp)
				s.mu.Unlock()
				if sc.Valid() {
					now := time.Now()
					sc.Complete("jobs", "coalesced", now, now, obs.SA("id", exp.id))
				}
				s.logSubmit(exp.id, false, true)
				writeJSON(w, http.StatusOK, resp)
				return
			}
		}
		// No live job: one that held the key may have finished since the
		// lookup. It cached its bytes before releasing the key.
		val, hit = s.cache.Peek(key)
	}
	if hit {
		// Cache hit: mint a terminal record served from the stored bytes.
		exp := s.newRecordLocked(key, cfg)
		exp.cached = true
		exp.result = val.(json.RawMessage)
		exp.traceID = sc.TraceID()
		resp := s.responseOfLocked(exp)
		s.mu.Unlock()
		if sc.Valid() {
			sc.Complete("jobs", "cache-hit", lookStart, time.Now(), obs.SA("id", exp.id))
		}
		s.logSubmit(exp.id, true, false)
		writeJSON(w, http.StatusOK, resp)
		return
	}
	exp := s.newRecordLocked(key, cfg)
	exp.traceID = sc.TraceID()
	var tr *obs.Tracer
	if s.opts.TraceCapacity > 0 {
		tr = obs.NewTracer(s.opts.TraceCapacity)
		tr.Instant("jobs", "submitted", 0, map[string]any{"id": exp.id})
		exp.tr = tr
	}
	var bus *obs.Bus
	if s.opts.EventHistory > 0 {
		bus = obs.NewBus(s.opts.EventHistory)
		bus.CountDropsInto(s.evDrops)
		exp.bus = bus
	}
	runCfg := cfg
	fn := func(ctx context.Context) (any, error) {
		agg, err := sim.RunContext(obs.WithBus(obs.WithTracer(ctx, tr), bus), runCfg)
		if err != nil {
			return nil, err
		}
		b, err := json.Marshal(report.NewAggregateSummary(runCfg, agg))
		if err != nil {
			return nil, err
		}
		return json.RawMessage(b), nil
	}
	// Only the span context rides along: the job outlives this request,
	// so ctx cancellation must not (and does not) bound it.
	if err := s.pool.SubmitTraced(r.Context(), exp.id, fn); err != nil {
		s.dropRecordLocked(exp.id)
		s.mu.Unlock()
		switch {
		case errors.Is(err, jobs.ErrQueueFull):
			w.Header().Set("Retry-After", "1")
			writeJSON(w, http.StatusServiceUnavailable, errorResponse{Error: err.Error()})
		case errors.Is(err, jobs.ErrClosed):
			writeJSON(w, http.StatusServiceUnavailable, errorResponse{Error: err.Error()})
		default:
			writeJSON(w, http.StatusInternalServerError, errorResponse{Error: err.Error()})
		}
		return
	}
	s.inflight[key] = exp.id
	resp := s.responseOfLocked(exp)
	s.mu.Unlock()
	s.logSubmit(exp.id, false, false)
	w.Header().Set("Location", "/v1/experiments/"+exp.id)
	writeJSON(w, http.StatusAccepted, resp)
}

// logSubmit emits one structured log line per accepted submission.
func (s *Server) logSubmit(id string, cacheHit, coalesced bool) {
	if s.logger == nil {
		return
	}
	s.logger.Info("experiment submitted",
		"id", id, "cache_hit", cacheHit, "coalesced", coalesced)
}

// handleTrace serves an experiment's run trace: Chrome trace-event JSON
// by default, JSONL with ?format=jsonl.
func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	s.mu.Lock()
	exp, ok := s.byID[id]
	s.mu.Unlock()
	if !ok {
		writeJSON(w, http.StatusNotFound, errorResponse{Error: "unknown experiment " + id})
		return
	}
	if exp.tr == nil {
		writeJSON(w, http.StatusNotFound,
			errorResponse{Error: "no trace recorded for " + id + " (cached result or tracing disabled)"})
		return
	}
	switch r.URL.Query().Get("format") {
	case "", "chrome":
		w.Header().Set("Content-Type", "application/json")
		_ = exp.tr.WriteChromeTrace(w)
	case "jsonl":
		w.Header().Set("Content-Type", "application/x-ndjson")
		_ = exp.tr.WriteJSONL(w)
	default:
		writeJSON(w, http.StatusBadRequest,
			errorResponse{Error: "unknown trace format (want chrome or jsonl)"})
	}
}

// handlePoolTrace serves the worker-pool lifecycle trace.
func (s *Server) handlePoolTrace(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	_ = s.poolTrace.WriteChromeTrace(w)
}

func (s *Server) handleGet(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	s.mu.Lock()
	exp, ok := s.byID[id]
	var resp ExperimentResponse
	if ok {
		resp = s.responseOfLocked(exp)
	}
	s.mu.Unlock()
	if !ok {
		writeJSON(w, http.StatusNotFound, errorResponse{Error: "unknown experiment " + id})
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	filter, err := statusFilter(r)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: err.Error()})
		return
	}
	s.mu.Lock()
	out := ListResponse{Experiments: make([]ExperimentResponse, 0, len(s.order))}
	for _, id := range s.order {
		resp := s.responseOfLocked(s.byID[id])
		if filter != "" && resp.Status != string(filter) {
			continue
		}
		resp.Result = nil // keep listings light
		out.Experiments = append(out.Experiments, resp)
	}
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	s.mu.Lock()
	_, known := s.byID[id]
	s.mu.Unlock()
	if !known {
		writeJSON(w, http.StatusNotFound, errorResponse{Error: "unknown experiment " + id})
		return
	}
	if !s.pool.Cancel(id) {
		writeJSON(w, http.StatusConflict, errorResponse{Error: "experiment " + id + " is not cancellable"})
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"id": id, "canceled": true})
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

// newRecordLocked mints an experiment record; s.mu must be held.
func (s *Server) newRecordLocked(key string, cfg sim.Config) *experiment {
	s.nextID++
	exp := &experiment{
		id:        "exp-" + strconv.FormatUint(s.nextID, 10),
		key:       key,
		cfg:       cfg,
		createdAt: time.Now(),
	}
	s.byID[exp.id] = exp
	s.order = append(s.order, exp.id)
	s.pruneLocked()
	s.records.Store(int64(len(s.byID)))
	return exp
}

// dropRecordLocked removes a record that never made it into the pool.
func (s *Server) dropRecordLocked(id string) {
	delete(s.byID, id)
	if n := len(s.order); n > 0 && s.order[n-1] == id {
		s.order = s.order[:n-1]
	}
	s.records.Store(int64(len(s.byID)))
}

// pruneLocked evicts the oldest terminal records above RecordCap so the
// index cannot grow without bound under sustained traffic.
func (s *Server) pruneLocked() {
	for len(s.order) > s.opts.RecordCap {
		id := s.order[0]
		exp := s.byID[id]
		if !exp.cached {
			if snap, ok := s.pool.Get(id); !ok || !snap.Status.Terminal() {
				return // oldest record still live; keep everything
			}
		}
		s.order = s.order[1:]
		delete(s.byID, id)
	}
}

// responseOfLocked assembles the response for one record; s.mu must be
// held (it reads only the record, but callers already hold the lock).
func (s *Server) responseOfLocked(exp *experiment) ExperimentResponse {
	resp := ExperimentResponse{
		ID:     exp.id,
		Cached: exp.cached,
		Config: exp.cfg,
	}
	if exp.cached {
		resp.Status = string(jobs.StatusDone)
		resp.Result = exp.result
		resp.EnqueuedAt = exp.createdAt.UTC().Format(time.RFC3339Nano)
		resp.FinishedAt = resp.EnqueuedAt
		return resp
	}
	snap, ok := s.pool.Get(exp.id)
	if !ok { // record pruned from the pool out from under us; treat as lost
		resp.Status = string(jobs.StatusFailed)
		resp.Error = "job state lost"
		return resp
	}
	resp.Status = string(snap.Status)
	resp.Attempts = snap.Attempts
	resp.EnqueuedAt = snap.EnqueuedAt.UTC().Format(time.RFC3339Nano)
	if !snap.StartedAt.IsZero() {
		resp.StartedAt = snap.StartedAt.UTC().Format(time.RFC3339Nano)
	}
	if !snap.FinishedAt.IsZero() {
		resp.FinishedAt = snap.FinishedAt.UTC().Format(time.RFC3339Nano)
	}
	if snap.Status == jobs.StatusDone {
		if body, isRaw := snap.Result.(json.RawMessage); isRaw {
			resp.Result = body
		}
	}
	if snap.Err != nil {
		resp.Error = snap.Err.Error()
	}
	return resp
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	_ = enc.Encode(v)
}
