package sim

// This file is the simulator's observability wiring. A run's observers
// arrive with the run, on its context: the span (obs.WithSpan), the
// event bus (obs.WithBus), the metric series (WithMetrics) and the
// verdict auditor (audit.WithAuditor). RunContextPool reads them once
// per run and carries them to every round in its roundEnv; a run
// without them records nothing, and there is no process-wide state.

import (
	"context"
	"time"

	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/obs/audit"
)

// Metrics are the simulator's metric series on one obs.Registry. Build
// them once per registry with NewMetrics and hand them to runs with
// WithMetrics.
type Metrics struct {
	rounds        *obs.Counter
	slotsIdle     *obs.Counter
	slotsSingle   *obs.Counter
	slotsCollided *obs.Counter
	frames        *obs.Counter
	identified    *obs.Counter
}

// NewMetrics registers the simulator's metric series on reg.
func NewMetrics(reg *obs.Registry) *Metrics {
	const slotsHelp = "Slots simulated, by ground-truth type."
	return &Metrics{
		rounds:        reg.Counter("sim_rounds_total", "Identification rounds completed."),
		slotsIdle:     reg.Counter("sim_slots_total", slotsHelp, obs.L("type", "idle")),
		slotsSingle:   reg.Counter("sim_slots_total", slotsHelp, obs.L("type", "single")),
		slotsCollided: reg.Counter("sim_slots_total", slotsHelp, obs.L("type", "collided")),
		frames:        reg.Counter("sim_frames_total", "Frames announced across all rounds."),
		identified:    reg.Counter("sim_tags_identified_total", "Tags acknowledged across all rounds."),
	}
}

// record folds one finished session into the series.
func (m *Metrics) record(s *metrics.Session) {
	m.rounds.Inc()
	m.slotsIdle.Add(uint64(s.Census.Idle))
	m.slotsSingle.Add(uint64(s.Census.Single))
	m.slotsCollided.Add(uint64(s.Census.Collided))
	m.frames.Add(uint64(s.Census.Frames))
	m.identified.Add(uint64(s.TagsIdentified))
}

// metricsKey carries a *Metrics through context.
type metricsKey struct{}

// WithMetrics returns a context whose runs fold every finished round
// into m (a nil m is fine and records nothing downstream).
func WithMetrics(ctx context.Context, m *Metrics) context.Context {
	return context.WithValue(ctx, metricsKey{}, m)
}

// metricsFrom returns the context's metric series, or nil.
func metricsFrom(ctx context.Context) *Metrics {
	m, _ := ctx.Value(metricsKey{}).(*Metrics)
	return m
}

// Observers are the observers a long-lived caller, such as a service,
// hands every run it starts. Either may be nil; the zero value
// observes nothing.
type Observers struct {
	Metrics *Metrics
	Auditor *audit.Auditor
}

// Attach returns ctx carrying o's non-nil observers.
func (o Observers) Attach(ctx context.Context) context.Context {
	if o.Metrics != nil {
		ctx = WithMetrics(ctx, o.Metrics)
	}
	if o.Auditor != nil {
		ctx = audit.WithAuditor(ctx, o.Auditor)
	}
	return ctx
}

// roundEnv carries one round's observers into runRound: the round's
// index, the round span's context (zero = no frame spans), the event
// bus, the run's metric series and its auditor (each nil = off), and,
// once runRound has built it, the round's audit recorder. None of it
// affects the simulated outcome.
type roundEnv struct {
	round   int
	span    obs.SpanContext
	bus     *obs.Bus
	metrics *Metrics
	auditor *audit.Auditor
	rec     *audit.Recorder

	lastFrame time.Time // the previous frame span's end
}

// frameHook returns the FSA reader's frame callback, or nil when no
// frame observer is live (preserving the no-hook fast path in
// EndFrame). Other algorithms get none: their frames are Gen-2 Queries
// or EDFSA group frames, a few slots each, and would flood the
// per-trace span cap. The env is copied to the heap only when a hook
// is returned, so an unobserved round allocates nothing for it.
func (env roundEnv) frameHook(c Config) func(metrics.FrameInfo) {
	if c.Algorithm != AlgFSA || (!env.span.Valid() && env.rec == nil && env.bus == nil) {
		return nil
	}
	e := new(roundEnv)
	*e = env
	e.lastFrame = time.Now()
	return e.endFrame
}

// endFrame observes one completed FSA frame: a "frame" span under the
// round span (wall-clock on the store's clock, the simulated timeline
// in sim_us), the audit recorder's frame boundary and a "frame" event
// on the bus.
func (e *roundEnv) endFrame(fi metrics.FrameInfo) {
	if e.span.Valid() {
		now := time.Now()
		e.span.Complete("sim", "frame", e.lastFrame, now,
			obs.SA("index", fi.Index), obs.SA("size", fi.Size), obs.SA("idle", fi.Idle),
			obs.SA("single", fi.Single), obs.SA("collided", fi.Collided), obs.SA("sim_us", fi.EndMicros))
		e.lastFrame = now
	}
	if e.rec != nil {
		e.rec.EndFrame()
	}
	if e.bus != nil {
		e.bus.Publish("frame", map[string]any{
			"round":    e.round,
			"frame":    fi.Index,
			"size":     fi.Size,
			"idle":     fi.Idle,
			"single":   fi.Single,
			"collided": fi.Collided,
			"sim_us":   fi.EndMicros,
		})
	}
}

// roundAttrs summarises a finished session for a round span.
func roundAttrs(round int, s *metrics.Session) []obs.SpanAttr {
	return []obs.SpanAttr{
		obs.SA("round", round),
		obs.SA("idle", s.Census.Idle),
		obs.SA("single", s.Census.Single),
		obs.SA("collided", s.Census.Collided),
		obs.SA("frames", s.Census.Frames),
		obs.SA("slots", s.Census.Slots()),
		obs.SA("identified", s.TagsIdentified),
		obs.SA("sim_us", s.TimeMicros),
	}
}
