package sim

// This file is the simulator's observability wiring: metric series and
// per-round / per-frame span recording. All of it is dormant until
// Instrument is called (metrics) or a span context travels in via
// context (tracing); the dormant path costs one atomic pointer load
// per round and allocates nothing, which the root obs benchmark guards.

import (
	"sync/atomic"
	"time"

	"repro/internal/metrics"
	"repro/internal/obs"
)

// simSeries are the simulator-level metric handles, registered on one
// obs.Registry by Instrument.
type simSeries struct {
	rounds        *obs.Counter
	slotsIdle     *obs.Counter
	slotsSingle   *obs.Counter
	slotsCollided *obs.Counter
	frames        *obs.Counter
	identified    *obs.Counter
}

// instr is the active instrumentation, nil when disabled. A single
// atomic pointer so RunRound's hot path pays one load.
var instr atomic.Pointer[simSeries]

// Instrument registers the simulator's metric series on reg and starts
// recording into them from every subsequent RunRound, process-wide.
// Calling it again (e.g. with a fresh registry) re-points recording at
// the new series; Uninstrument stops recording entirely.
func Instrument(reg *obs.Registry) {
	const slotsHelp = "Slots simulated, by ground-truth type."
	instr.Store(&simSeries{
		rounds:        reg.Counter("sim_rounds_total", "Identification rounds completed."),
		slotsIdle:     reg.Counter("sim_slots_total", slotsHelp, obs.L("type", "idle")),
		slotsSingle:   reg.Counter("sim_slots_total", slotsHelp, obs.L("type", "single")),
		slotsCollided: reg.Counter("sim_slots_total", slotsHelp, obs.L("type", "collided")),
		frames:        reg.Counter("sim_frames_total", "Frames announced across all rounds."),
		identified:    reg.Counter("sim_tags_identified_total", "Tags acknowledged across all rounds."),
	})
}

// Uninstrument detaches the simulator from any registry; RunRound goes
// back to recording nothing.
func Uninstrument() { instr.Store(nil) }

// record folds one finished session into the registered series.
func (m *simSeries) record(s *metrics.Session) {
	m.rounds.Inc()
	m.slotsIdle.Add(uint64(s.Census.Idle))
	m.slotsSingle.Add(uint64(s.Census.Single))
	m.slotsCollided.Add(uint64(s.Census.Collided))
	m.frames.Add(uint64(s.Census.Frames))
	m.identified.Add(uint64(s.TagsIdentified))
}

// frameSpans builds a metrics frame hook that records one "frame"
// span per FSA frame under the round span sc. Span intervals are
// wall-clock on the store's clock; the simulated timeline rides along
// in sim_us.
func frameSpans(sc obs.SpanContext) func(metrics.FrameInfo) {
	last := time.Now()
	return func(fi metrics.FrameInfo) {
		now := time.Now()
		sc.Complete("sim", "frame", last, now,
			obs.SA("index", fi.Index), obs.SA("size", fi.Size), obs.SA("idle", fi.Idle),
			obs.SA("single", fi.Single), obs.SA("collided", fi.Collided), obs.SA("sim_us", fi.EndMicros))
		last = now
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
