// Package server exposes the simulator as a multi-tenant experiment
// service over HTTP/JSON. Submissions are enqueued on a bounded worker
// pool (internal/jobs); completed aggregates are stored in a
// content-addressed LRU cache (internal/rescache) keyed by the canonical
// configuration hash, so resubmitting an identical experiment is served
// byte-identically without recomputation. Experiments and sweep cells
// share one compute path (sweep.Runner): an identical configuration
// submitted while a computation of it is live, from an experiment or
// any sweep, coalesces onto that computation instead of queueing twice.
//
// API:
//
//	POST   /v1/experiments              {"config": {...sim.Config...}} → 202 (queued) or 200 (cached/coalesced)
//	GET    /v1/experiments              list of experiment summaries (?status= filters by lifecycle state)
//	GET    /v1/experiments/{id}         status and, when done, the aggregate
//	GET    /v1/experiments/{id}/trace   the trace the run belongs to (Chrome trace-event JSON; ?format=jsonl)
//	GET    /v1/experiments/{id}/events  live telemetry stream (text/event-stream; Last-Event-ID resume)
//	GET    /v1/audit                    shadow-oracle audit report (when Options.EnableAudit)
//	DELETE /v1/experiments/{id}         cancel a queued or running experiment
//	POST   /v1/sweeps                   {"spec": {...sweep.Spec...}} → 202 with the sweep record
//	GET    /v1/sweeps                   list of sweep summaries (?status= filters)
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
//	GET    /v1/traces                   retained trace summaries
//	GET    /v1/traces/{id}              one trace: request → job/sweep → cell → run → experiment
//	                                    → round → frame spans (?format=jsonl for JSONL)
//	GET    /healthz                     liveness probe
//	GET    /metrics                     Prometheus text format (single obs registry walk)
//	GET    /debug/statusz               self-contained HTML service snapshot
//	GET    /debug/trace                 every retained span of every trace (?format=jsonl)
//	GET    /debug/pprof/...             net/http/pprof (when Options.EnablePprof)
//
// Every request that creates work (or carries an X-Trace-Id header)
// runs under a trace: the middleware assigns or adopts the ID, echoes
// it in the X-Trace-Id response header, and the span tree — request,
// queue wait, run, sweep, cells, simulator experiment, rounds and
// frames — is exported by GET /v1/traces/{id}.
package server

import (
	"context"
	"encoding/json"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"sync"
	"time"

	"repro/internal/jobs"
	"repro/internal/obs"
	"repro/internal/obs/audit"
	"repro/internal/obs/slo"
	"repro/internal/obs/tsdb"
	"repro/internal/rescache"
	"repro/internal/sim"
	"repro/internal/sweep"
)

// Options sizes the service. Zero fields take the documented defaults.
type Options struct {
	// Workers is the worker-pool size (default runtime.GOMAXPROCS via jobs).
	Workers int
	// QueueDepth bounds the backlog of queued experiments (default 64).
	QueueDepth int
	// CacheSize bounds the result cache, in entries (default 1024).
	CacheSize int
	// JobTimeout bounds one experiment's or sweep cell's run time; 0
	// means unlimited. Scenarios are not bounded by it.
	JobTimeout time.Duration
	// TraceStoreTraces bounds how many traces the span store retains
	// (default 256; negative disables tracing — X-Trace-Id still
	// propagates, but no spans are recorded).
	TraceStoreTraces int
	// TraceStoreSpans bounds the spans retained per trace (default
	// 4096; excess spans are dropped and counted, roots are kept).
	TraceStoreSpans int
	// Logger, if set, receives structured request logs (method, path,
	// status, latency, experiment id, cache hit) and worker lifecycle
	// logs. Nil disables logging.
	Logger *slog.Logger
	// EnablePprof mounts net/http/pprof under /debug/pprof/.
	EnablePprof bool

	// EventHistory bounds each experiment's telemetry event ring, in
	// events, for SSE Last-Event-ID replay (default 256).
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
	// EnableAudit turns on shadow-oracle verdict auditing for every
	// experiment and sweep cell this server runs. The confusion matrix
	// lands on this server's /metrics and GET /v1/audit.
	EnableAudit bool
	// AuditExemplars bounds the audit exemplar ring (default 64).
	AuditExemplars int

	// HistoryInterval paces the metrics-history sampler (default 1s).
	HistoryInterval time.Duration
	// HistoryRetention bounds how far back the history rings reach
	// (default 16m, covering the default SLO slow window).
	HistoryRetention time.Duration
	// SLOConfig is the burn-rate alerting policy evaluated over the
	// history store; nil takes slo.DefaultConfig().
	SLOConfig *slo.Config
}

func (o Options) withDefaults() Options {
	if o.CacheSize <= 0 {
		o.CacheSize = 1024
	}
	if o.TraceStoreTraces == 0 {
		o.TraceStoreTraces = 256
	}
	if o.TraceStoreSpans <= 0 {
		o.TraceStoreSpans = 4096
	}
	if o.EventHistory <= 0 {
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
	if o.HistoryInterval <= 0 {
		o.HistoryInterval = time.Second
	}
	if o.HistoryRetention <= 0 {
		o.HistoryRetention = 16 * time.Minute
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

	EnqueuedAt string `json:"enqueued_at,omitempty"`
	StartedAt  string `json:"started_at,omitempty"`
	FinishedAt string `json:"finished_at,omitempty"`

	// Result is the report.AggregateSummary encoding, verbatim. It is
	// byte-identical for identical configurations (the cache stores these
	// exact bytes).
	Result json.RawMessage `json:"result,omitempty"`
	Error  string          `json:"error,omitempty"`
}

// errorResponse is the uniform error body.
type errorResponse struct {
	Error string `json:"error"`
}

// experiment is the server-side record behind an ID. A computed
// experiment is a member of a flight and reads its state from it: a
// flight it leads under its own ID (and can cancel), or one a sweep
// cell leads (no event stream, not cancellable). Cache-served ones are
// terminal at creation.
type experiment struct {
	id        string
	cfg       sim.Config // canonical form
	cached    bool
	result    json.RawMessage // set for cache-served records
	member    *sweep.Member   // nil for cache-served records
	createdAt time.Time
	traceID   string   // trace this record's request, queue wait and run belong to
	bus       *obs.Bus // live telemetry of a led run; nil otherwise
}

// leads reports whether the record leads its flight: the pool job is its own.
func (e *experiment) leads() bool { return e.member != nil && e.member.Leads() }

// Server is the experiment service. Create it with New and expose
// Handler on an http.Server.
type Server struct {
	opts      Options
	pool      *jobs.Pool
	cache     *rescache.Cache
	mux       *http.ServeMux
	reg       *obs.Registry
	lat       *obs.Histogram
	auditor   *audit.Auditor // shadow-oracle auditor; nil unless EnableAudit
	evDrops   *obs.Counter   // slow event subscribers dropped, all experiments
	logger    *slog.Logger
	startedAt time.Time

	spans      *obs.TraceStore      // the trace store; nil when tracing is disabled
	wide       *wideLog             // recent wide events, for /debug/statusz
	originLats map[string]originLat // latency decomposition by origin (job, sweep)

	hist        *tsdb.Store           // metrics history
	slos        *slo.Engine           // burn-rate alerting; nil when the policy was rejected
	alertBus    *obs.Bus              // alert transition events
	runstats    *obs.RuntimeCollector // goroutines/heap/GC series
	samplerStop chan struct{}         // closes to stop the sampler goroutine
	samplerOnce sync.Once

	runner *sweep.Runner // the one compute path of experiments and sweep cells

	// testHookAfterLookup, when set, runs in startExperiment between its
	// cache lookup and the in-flight check, so a test can finish a job
	// there.
	testHookAfterLookup func()

	// mu guards the three record kinds' indexes.
	mu          sync.Mutex
	experiments *experimentKind
	sweeps      *sweepKind
	scenarios   *scenarioKind
}

// New builds a Server and starts its worker pool.
func New(o Options) *Server {
	o = o.withDefaults()
	s := &Server{
		opts:      o,
		cache:     rescache.New(o.CacheSize),
		reg:       obs.NewRegistry(),
		logger:    o.Logger,
		startedAt: time.Now(),
	}
	s.experiments, s.sweeps, s.scenarios = s.newExperiments(), s.newSweeps(), s.newScenarios()
	if o.TraceStoreTraces > 0 {
		s.spans = obs.NewTraceStore(o.TraceStoreTraces, o.TraceStoreSpans)
	}
	s.wide = newWideLog()
	if o.EnableAudit {
		s.auditor = audit.New(s.reg, audit.Options{ExemplarCap: o.AuditExemplars})
	}
	s.pool = jobs.NewPool(jobs.Options{
		Workers:      o.Workers,
		QueueDepth:   o.QueueDepth,
		OnDone:       func(snap jobs.Snapshot) { s.lat.Observe(snap.Latency().Seconds()) },
		OnTransition: s.onTransition,
		Logger:       o.Logger,
	})
	s.runner = &sweep.Runner{
		Pool:      s.pool,
		Cache:     s.cache,
		Scratch:   &sim.ScratchPool{},
		Observers: sim.Observers{Auditor: s.auditor},
		Timeout:   o.JobTimeout,
		OnDone:    s.onDone,
		// CacheLookup, WindowWait and Observers.Metrics are wired in
		// registerMetrics, where the series are created.
	}
	s.registerMetrics()
	s.startHistory()
	s.mux = http.NewServeMux()
	s.experiments.mount(s.mux)
	s.sweeps.mount(s.mux)
	s.scenarios.mount(s.mux)
	s.mux.HandleFunc("GET /v1/experiments/{id}/trace", s.handleTrace)
	s.mux.HandleFunc("GET /v1/audit", s.handleAudit)
	s.mux.HandleFunc("GET /v1/sweeps/{id}/cells", s.handleSweepCells)
	s.mux.HandleFunc("GET /v1/sweeps/{id}/report", s.handleSweepReport)
	s.mux.HandleFunc("GET /v1/traces", s.handleTraces)
	s.mux.HandleFunc("GET /v1/traces/{id}", s.handleTraceGet)
	s.mux.HandleFunc("GET /v1/metrics/history", s.handleMetricsHistory)
	s.mux.HandleFunc("GET /v1/alerts", s.handleAlerts)
	s.mux.HandleFunc("GET /v1/alerts/events", s.handleAlertEvents)
	s.mux.HandleFunc("GET /healthz", s.handleHealth)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /debug/statusz", s.handleStatusz)
	s.mux.HandleFunc("GET /debug/trace", s.handleDebugTrace)
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

// onTransition bumps the per-state-transition counter. It runs lock-free
// (the initial enqueue fires while s.mu is held); an experiment's event
// stream gets its job lifecycle from the flight it leads.
func (s *Server) onTransition(t jobs.Transition) {
	from := string(t.From)
	if from == "" {
		from = "new"
	}
	s.reg.Counter("rfidd_job_transitions_total",
		"Job lifecycle transitions by from/to state.",
		obs.L("from", from), obs.L("to", string(t.To))).Inc()
}

// Shutdown stops the history sampler, then stops accepting work and
// drains queued and running experiments; see jobs.Pool.Shutdown for
// deadline semantics.
func (s *Server) Shutdown(ctx context.Context) error {
	s.stopHistory()
	return s.pool.Shutdown(ctx)
}

// experimentKind is the experiment record kind: a POST /v1/experiments
// body, its normalised form, the record and its JSON shape.
type experimentKind = kind[SubmitRequest, experimentSubmit, *experiment, ExperimentResponse]

// experimentSubmit is a normalised experiment body: the canonical
// configuration and its cache key.
type experimentSubmit struct {
	cfg sim.Config
	key string
}

func (s *Server) newExperiments() *experimentKind {
	return &experimentKind{
		srv: s, route: "/v1/experiments", noun: "experiment", prefix: "exp-", cap: experimentRecordCap,
		origin:  "job",
		prepare: prepareExperiment,
		start:   s.startExperiment,
		logAttrs: func(e *experiment, queued bool) []any {
			return []any{"cache_hit", e.cached, "coalesced", !queued && !e.cached}
		},
		live:   func(e *experiment) bool { return e.member != nil && e.member.Live() },
		view:   s.responseOf,
		bus:    func(e *experiment) *obs.Bus { return e.bus },
		cancel: func(e *experiment) bool { return e.leads() && s.runner.Leave(e.id) > 0 },
		byID:   make(map[string]*experiment),
	}
}

// prepareExperiment validates the configuration and keys its canonical
// form; a keying failure is the server's (500), not the body's.
func prepareExperiment(req SubmitRequest) (experimentSubmit, error) {
	if err := req.Config.Validate(); err != nil {
		return experimentSubmit{}, err
	}
	cfg := req.Config.Canonical()
	key, err := rescache.ConfigKey(cfg)
	if err != nil {
		return experimentSubmit{}, internalError{err}
	}
	return experimentSubmit{cfg: cfg, key: key}, nil
}

// startExperiment serves p from the cache, answers with the experiment
// already leading p's live computation, or claims that computation
// under a new ID: joining a live flight or leading (queueing) a new one.
func (s *Server) startExperiment(r *http.Request, p experimentSubmit) (*experiment, string, bool, error) {
	sc := obs.SpanFrom(r.Context()) // request span, from the trace middleware
	origin := s.experiments.origin
	// The submission's one counted lookup; Claim's re-check is uncounted.
	lookStart := time.Now()
	val, hit := s.runner.Lookup(p.key, origin)
	if s.testHookAfterLookup != nil {
		s.testHookAfterLookup()
	}
	// An experiment leading the live flight answers for every duplicate.
	exp, shared := s.experiments.byID[s.runner.Leader(p.key)]
	if !shared || hit || !s.experiments.live(exp) {
		exp = &experiment{
			id: s.experiments.mint(), cfg: p.cfg, cached: hit, result: val,
			createdAt: time.Now(), traceID: sc.TraceID(),
		}
		if !hit {
			bus := s.newBus(s.opts.EventHistory)
			// Only the span context rides along: the job outlives this request.
			req := sweep.Request{ID: exp.id, Key: p.key, Config: p.cfg, Origin: origin, Span: sc, Bus: bus}
			req.Settle = func(snap jobs.Snapshot) { s.onDone(req.Done(snap)) }
			var err error
			if exp.member, exp.result, err = s.runner.Claim(context.Background(), req); err != nil {
				return nil, "", false, err
			}
			exp.cached = exp.member == nil
			if exp.leads() {
				exp.bus = bus
				return exp, exp.id, true, nil
			}
		}
	}
	if now := time.Now(); sc.Valid() {
		if exp.cached {
			sc.Complete("jobs", "cache-hit", lookStart, now, obs.SA("id", exp.id))
		} else {
			sc.Complete("jobs", "coalesced", now, now, obs.SA("id", exp.id))
		}
	}
	return exp, exp.id, false, nil
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

// responseOf assembles the response for one record.
func (s *Server) responseOf(exp *experiment) ExperimentResponse {
	var v jobView
	if exp.cached {
		at := stamp(exp.createdAt)
		v = jobView{status: string(jobs.StatusDone), enqueued: at, finished: at, result: exp.result}
	} else {
		v = jobViewOf(exp.member.Snapshot())
	}
	return ExperimentResponse{
		ID: exp.id, Status: v.status, Cached: exp.cached, Config: exp.cfg,
		EnqueuedAt: v.enqueued, StartedAt: v.started, FinishedAt: v.finished,
		Result: v.result, Error: v.err,
	}
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	_ = enc.Encode(v)
}
