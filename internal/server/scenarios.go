package server

// Scenario endpoints: POST /v1/scenarios accepts a streaming warehouse
// spec (internal/scenario) and runs it as one long-lived job on the
// shared worker pool; the experiment timeout (Options.JobTimeout) bounds
// only the compute path, so it does not reach scenarios. Per-epoch
// progress streams over SSE ("epoch" events, terminal "scenario" event)
// from a replay ring sized to hold the whole run, so a client connecting
// after completion still drains every event.

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sync/atomic"

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

// scenarioRec is the server-side record behind a scenario ID. It owns
// the run's pool job, which holds the lifecycle state, and carries what
// the job does not: the defaulted spec, the event bus and the latest
// progress snapshot (stored from the engine's OnEpoch callback, read by
// handlers without taking s.mu).
type scenarioRec struct {
	id   string
	spec scenario.Spec
	job  *jobs.Job
	bus  *obs.Bus
	prog atomic.Pointer[scenario.Progress]
}

// scenarioKind is the scenario record kind: a POST /v1/scenarios body,
// its defaulted spec, the record and its JSON shape.
type scenarioKind = kind[ScenarioSubmitRequest, scenario.Spec, *scenarioRec, ScenarioResponse]

func (s *Server) newScenarios() *scenarioKind {
	return &scenarioKind{
		srv: s, route: "/v1/scenarios", noun: "scenario", prefix: "scn-", cap: scenarioRecordCap,
		prepare: prepareScenario,
		start:   s.startScenario,
		logAttrs: func(rec *scenarioRec, _ bool) []any {
			return []any{"readers", rec.spec.Readers, "arrivals_per_second", rec.spec.ArrivalsPerSecond,
				"duration_micros", rec.spec.DurationMicros}
		},
		live:   func(rec *scenarioRec) bool { return !rec.job.Snapshot().Status.Terminal() },
		view:   s.scenarioResponseOf,
		bus:    func(rec *scenarioRec) *obs.Bus { return rec.bus },
		cancel: func(rec *scenarioRec) bool { return rec.job.Cancel() },
		byID:   make(map[string]*scenarioRec),
	}
}

// prepareScenario fills the spec's defaults, then checks it.
func prepareScenario(req ScenarioSubmitRequest) (scenario.Spec, error) {
	spec := req.Spec.WithDefaults()
	return spec, spec.Validate()
}

// startScenario queues spec's run on the pool under a new ID.
func (s *Server) startScenario(r *http.Request, spec scenario.Spec) (*scenarioRec, string, bool, error) {
	// Size the replay ring for the whole run: one "epoch" event per
	// progress report plus the terminal "scenario" event.
	epochMicros := float64(colorUpperBound(spec)) * spec.SessionMicros
	reports := min(int(spec.DurationMicros/(epochMicros*float64(spec.EpochsPerProgress)))+16, 1<<13)
	rec := &scenarioRec{id: s.scenarios.mint(), spec: spec, bus: s.newBus(reports)}
	fn := func(ctx context.Context) (any, error) {
		res, err := scenario.RunContext(ctx, spec, scenario.Options{
			Scratch: s.runner.Scratch,
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
	// and nothing bounds its time — a warehouse run is minutes by
	// design; DELETE /v1/scenarios/{id} ends it.
	var err error
	if rec.job, err = s.pool.Submit(r.Context(), rec.id, fn, s.finishScenario(rec)); err != nil {
		return nil, "", false, err
	}
	s.hist.Annotate("scenario", fmt.Sprintf("%s started (%d readers, λ=%g/s)",
		rec.id, spec.Readers, spec.ArrivalsPerSecond))
	return rec, rec.id, true, nil
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

// finishScenario is the scenario job's finish hook: it emits the
// terminal "scenario" SSE event, closes the bus (subscribers drain the
// replay ring, then hang up) and annotates the metrics history.
func (s *Server) finishScenario(rec *scenarioRec) func(jobs.Snapshot) {
	return func(snap jobs.Snapshot) {
		data := map[string]any{"id": rec.id, "status": string(snap.Status)}
		if snap.Err != nil {
			data["error"] = snap.Err.Error()
		}
		rec.bus.Publish("scenario", data)
		rec.bus.Close()
		s.hist.Annotate("scenario", fmt.Sprintf("%s %s", rec.id, snap.Status))
	}
}

// scenarioResponseOf assembles the response for one record from its
// job's snapshot and latest progress.
func (s *Server) scenarioResponseOf(rec *scenarioRec) ScenarioResponse {
	v := jobViewOf(rec.job.Snapshot())
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
	return max(min((2*d+1)*(2*d+1), spec.Readers), 1)
}
