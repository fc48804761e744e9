package server

// Scenario endpoints: POST /v1/scenarios accepts a streaming warehouse
// spec (internal/scenario) and runs it as one long-lived job on the
// shared worker pool, exempted from the pool-wide experiment timeout
// via jobs.NoTimeout. Per-epoch progress streams over SSE ("epoch"
// events, terminal "scenario" event) from a replay ring sized to hold
// the whole run, so a client connecting after completion still drains
// every event.

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sync/atomic"
	"time"

	"repro/internal/jobs"
	"repro/internal/obs"
	"repro/internal/scenario"
)

// ScenarioSubmitRequest is the POST /v1/scenarios body.
type ScenarioSubmitRequest struct {
	Spec scenario.Spec `json:"spec"`
}

// ScenarioResponse is the JSON shape of one scenario, returned by the
// submit, get and list endpoints (list omits Result).
type ScenarioResponse struct {
	ID     string        `json:"id"`
	Status string        `json:"status"`
	Spec   scenario.Spec `json:"spec"` // defaulted form

	EnqueuedAt string `json:"enqueued_at,omitempty"`
	StartedAt  string `json:"started_at,omitempty"`
	FinishedAt string `json:"finished_at,omitempty"`

	// Progress is the latest epoch snapshot of a live run (also present
	// after completion, as the final epoch reported).
	Progress *scenario.Progress `json:"progress,omitempty"`
	// Result is the scenario.Result encoding, set once the run is done.
	Result json.RawMessage `json:"result,omitempty"`
	Error  string          `json:"error,omitempty"`
}

// ScenarioListResponse is the GET /v1/scenarios body.
type ScenarioListResponse struct {
	Scenarios []ScenarioResponse `json:"scenarios"`
}

// scenarioRec is the server-side record behind a scenario ID. Lifecycle
// state lives in the pool job with the same ID; the record carries what
// the pool does not: the defaulted spec, the event bus and the latest
// progress snapshot (stored from the engine's OnEpoch callback, read by
// handlers without taking s.mu).
type scenarioRec struct {
	id        string
	spec      scenario.Spec
	createdAt time.Time
	traceID   string
	bus       *obs.Bus
	prog      atomic.Pointer[scenario.Progress]
}

func (s *Server) handleScenarioSubmit(w http.ResponseWriter, r *http.Request) {
	var req ScenarioSubmitRequest
	if !decodeBody(w, r, &req) {
		return
	}
	spec := req.Spec.WithDefaults()
	if err := spec.Validate(); err != nil {
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: err.Error()})
		return
	}
	sc := obs.SpanFrom(r.Context())

	// Size the replay ring for the whole run: one "epoch" event per
	// progress report plus the terminal "scenario" event.
	epochMicros := float64(colorUpperBound(spec)) * spec.SessionMicros
	reports := int(spec.DurationMicros/(epochMicros*float64(spec.EpochsPerProgress))) + 16
	if reports > 1<<13 {
		reports = 1 << 13
	}
	bus := s.newBus(reports)

	s.mu.Lock()
	id := s.scenRecs.mint()
	rec := &scenarioRec{
		id: id, spec: spec, createdAt: time.Now(),
		traceID: sc.TraceID(), bus: bus,
	}
	s.mu.Unlock()

	runSpec := spec
	fn := func(ctx context.Context) (any, error) {
		res, err := scenario.RunContext(ctx, runSpec, scenario.Options{
			Scratch: s.sweeps.Scratch,
			OnEpoch: func(p scenario.Progress) {
				rec.prog.Store(&p)
				rec.bus.Publish("epoch", progressEvent(p))
			},
		})
		if err != nil {
			return nil, err
		}
		b, err := json.Marshal(res)
		if err != nil {
			return nil, err
		}
		return json.RawMessage(b), nil
	}
	// The run outlives this request (only the span context rides along)
	// and is exempt from the pool's one-shot experiment timeout — a
	// warehouse run is minutes by design, DELETE /v1/scenarios/{id}
	// bounds it.
	if err := s.pool.SubmitTracedTimeout(r.Context(), id, fn, jobs.NoTimeout); err != nil {
		writeSubmitError(w, err)
		return
	}
	s.mu.Lock()
	s.scenRecs.add(id, rec)
	resp := s.scenarioResponseOf(rec)
	s.mu.Unlock()
	if s.logger != nil {
		s.logger.Info("scenario submitted", "id", id,
			"readers", spec.Readers, "arrivals_per_second", spec.ArrivalsPerSecond,
			"duration_micros", spec.DurationMicros)
	}
	s.hist.Annotate("scenario", fmt.Sprintf("%s started (%d readers, λ=%g/s)",
		id, spec.Readers, spec.ArrivalsPerSecond)) // nil-safe when history is off
	// Watch for the terminal state: publish the closing "scenario" event,
	// retire the stream, and mark the history timeline.
	go s.watchScenario(rec)
	w.Header().Set("Location", "/v1/scenarios/"+id)
	writeJSON(w, http.StatusAccepted, resp)
}

// progressEvent flattens one epoch snapshot into the bus's event
// payload shape, keys matching the Progress JSON encoding.
func progressEvent(p scenario.Progress) map[string]any {
	return map[string]any{
		"epoch":                     p.Epoch,
		"sim_micros":                p.SimMicros,
		"live":                      p.Live,
		"arrived":                   p.Arrived,
		"read":                      p.Read,
		"missed":                    p.Missed,
		"epoch_reads":               p.EpochReads,
		"epoch_mean_latency_micros": p.EpochMeanLatencyMicros,
		"reads_per_second":          p.ReadsPerSecond,
		"miss_rate":                 p.MissRate,
	}
}

// watchScenario waits for the scenario's pool job to reach a terminal
// state, then emits the terminal "scenario" SSE event, closes the bus
// (subscribers drain the replay ring, then hang up) and annotates the
// metrics history.
func (s *Server) watchScenario(rec *scenarioRec) {
	snap, err := s.pool.Wait(context.Background(), rec.id)
	if err != nil {
		return // record vanished from the pool; nothing to finalise
	}
	data := map[string]any{"id": rec.id, "status": string(snap.Status)}
	if snap.Err != nil {
		data["error"] = snap.Err.Error()
	}
	rec.bus.Publish("scenario", data)
	rec.bus.Close()
	s.hist.Annotate("scenario", fmt.Sprintf("%s %s", rec.id, snap.Status))
}

// scenarioResponseOf assembles the response for one record from its
// pool snapshot and latest progress.
func (s *Server) scenarioResponseOf(rec *scenarioRec) ScenarioResponse {
	v := s.jobViewOf(rec.id)
	return ScenarioResponse{
		ID: rec.id, Status: v.status, Spec: rec.spec,
		EnqueuedAt: v.enqueued, StartedAt: v.started, FinishedAt: v.finished,
		Progress: rec.prog.Load(), Result: v.result, Error: v.err,
	}
}

// colorUpperBound is a cheap overestimate of the interference-colouring
// class count used only to size the event replay ring before the engine
// computes the real colouring: readers within the interference radius
// of one grid cell, capped at the reader count.
func colorUpperBound(spec scenario.Spec) int {
	k := 1
	for k*k < spec.Readers {
		k++
	}
	step := spec.SideMetres / float64(k)
	if step <= 0 {
		return spec.Readers
	}
	d := int(spec.InterferenceRadiusMetres/step) + 1
	c := (2*d + 1) * (2*d + 1)
	if c > spec.Readers {
		c = spec.Readers
	}
	if c < 1 {
		c = 1
	}
	return c
}
