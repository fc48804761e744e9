package server

// Record registry: experiments, sweeps and scenarios share one record
// lifecycle. An ID is minted, the record is indexed in creation order,
// GET/list/events/cancel serve it, and the oldest terminal records are
// pruned past a fixed cap. A kind plugs in only what differs: its ID
// prefix and cap, when a record is live, how it renders, which bus
// streams its events and how it is cancelled.

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"

	"repro/internal/jobs"
	"repro/internal/obs"
)

// Per-kind record caps: beyond these the oldest terminal records are
// pruned, so the indexes stay bounded under sustained traffic.
const (
	experimentRecordCap = 4096
	sweepRecordCap      = 256
	scenarioRecordCap   = 64
)

// response is what the shared list path and the client's poll loop need
// of a kind's JSON shape.
type response[R any] interface {
	state() string // lifecycle status
	summary() R    // the listing form: result bytes dropped
}

func (r ExperimentResponse) state() string { return r.Status }
func (r SweepResponse) state() string      { return r.Status }
func (r ScenarioResponse) state() string   { return r.Status }

func (r ExperimentResponse) summary() ExperimentResponse { r.Result = nil; return r }
func (r SweepResponse) summary() SweepResponse           { return r }
func (r ScenarioResponse) summary() ScenarioResponse     { r.Result = nil; return r }

// registry indexes one kind's records by ID, in creation order. mint,
// add, get, records and prune must be called with srv.mu held; the
// handlers take it themselves.
type registry[T any, R response[R]] struct {
	srv      *Server
	noun     string // "experiment": names the kind in error messages
	prefix   string // "exp-": minted IDs are prefix + counter
	cap      int
	noStream string // why a record may lack an event stream

	live   func(T) bool     // a live record stops the prune
	view   func(T) R        // the GET body
	list   func([]R) any    // wraps a listing in the kind's list body
	bus    func(T) *obs.Bus // the record's event stream; nil when none
	cancel func(T) bool     // false answers 409 (nothing left to cancel)

	byID  map[string]T
	order []string
	next  uint64
	count atomic.Int64 // len(byID), read by lock-free gauges
}

// experiments is the experiment registry's type. Server embeds it, so
// the experiment index also reads as s.byID.
type experiments = registry[*experiment, ExperimentResponse]

// mint reserves the kind's next ID.
func (g *registry[T, R]) mint() string {
	g.next++
	return g.prefix + strconv.FormatUint(g.next, 10)
}

// add indexes rec under an ID from mint, then prunes.
func (g *registry[T, R]) add(id string, rec T) {
	g.byID[id] = rec
	g.order = append(g.order, id)
	g.prune()
}

func (g *registry[T, R]) get(id string) (T, bool) {
	rec, ok := g.byID[id]
	return rec, ok
}

// records returns the indexed records, oldest first.
func (g *registry[T, R]) records() []T {
	out := make([]T, len(g.order))
	for i, id := range g.order {
		out[i] = g.byID[id]
	}
	return out
}

// prune evicts the oldest terminal records above cap, stopping at the
// first live one. Each evicted ID's pool job is forgotten with it (a
// sweep has none; Forget ignores the ID): the job's closure pins the
// run's tracer and event bus, so the pool index must shrink with the
// registry.
func (g *registry[T, R]) prune() {
	for len(g.order) > g.cap {
		id := g.order[0]
		if g.live(g.byID[id]) {
			break
		}
		g.order = g.order[1:]
		delete(g.byID, id)
		g.srv.pool.Forget(id)
	}
	g.count.Store(int64(len(g.byID)))
}

// resolve looks up the {id} path value, writing the kind's 404 on a miss.
func (g *registry[T, R]) resolve(w http.ResponseWriter, r *http.Request) (T, bool) {
	id := r.PathValue("id")
	g.srv.mu.Lock()
	rec, ok := g.get(id)
	g.srv.mu.Unlock()
	if !ok {
		writeJSON(w, http.StatusNotFound, errorResponse{Error: "unknown " + g.noun + " " + id})
	}
	return rec, ok
}

func (g *registry[T, R]) handleGet(w http.ResponseWriter, r *http.Request) {
	if rec, ok := g.resolve(w, r); ok {
		writeJSON(w, http.StatusOK, g.view(rec))
	}
}

// handleList serves the kind's records oldest first, filtered by
// ?status= and without result bytes.
func (g *registry[T, R]) handleList(w http.ResponseWriter, r *http.Request) {
	filter, err := statusFilter(r)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: err.Error()})
		return
	}
	g.srv.mu.Lock()
	recs := g.records()
	g.srv.mu.Unlock()
	out := make([]R, 0, len(recs))
	for _, rec := range recs {
		resp := g.view(rec)
		if filter != "" && resp.state() != string(filter) {
			continue
		}
		out = append(out, resp.summary())
	}
	writeJSON(w, http.StatusOK, g.list(out))
}

// handleEvents streams one record's event bus as SSE (see streamSSE).
func (g *registry[T, R]) handleEvents(w http.ResponseWriter, r *http.Request) {
	rec, ok := g.resolve(w, r)
	if !ok {
		return
	}
	bus := g.bus(rec)
	if bus == nil {
		writeJSON(w, http.StatusNotFound,
			errorResponse{Error: "no event stream for " + r.PathValue("id") + " (" + g.noStream + ")"})
		return
	}
	g.srv.streamSSE(w, r, bus)
}

func (g *registry[T, R]) handleCancel(w http.ResponseWriter, r *http.Request) {
	rec, ok := g.resolve(w, r)
	if !ok {
		return
	}
	id := r.PathValue("id")
	if !g.cancel(rec) {
		writeJSON(w, http.StatusConflict, errorResponse{Error: g.noun + " " + id + " is not cancellable"})
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"id": id, "canceled": true})
}

// statusFilter parses the ?status= query parameter shared by every
// record listing and the sweep cell listing; "" means no filter.
func statusFilter(r *http.Request) (jobs.Status, error) {
	raw := r.URL.Query().Get("status")
	switch st := jobs.Status(raw); st {
	case "", jobs.StatusQueued, jobs.StatusRunning, jobs.StatusDone, jobs.StatusFailed, jobs.StatusCanceled:
		return st, nil
	default:
		return "", fmt.Errorf("unknown status %q (want queued, running, done, failed or canceled)", raw)
	}
}

// decodeBody strictly decodes a submission body into v (unknown fields
// are rejected), writing the 400 when it does not decode.
func decodeBody(w http.ResponseWriter, r *http.Request, v any) bool {
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: "bad request body: " + err.Error()})
		return false
	}
	return true
}

// newBus returns a record's event bus, replaying up to ring events, or
// nil when event streaming is disabled (EventHistory < 0).
func (s *Server) newBus(ring int) *obs.Bus {
	if s.opts.EventHistory <= 0 {
		return nil
	}
	bus := obs.NewBus(ring)
	bus.CountDropsInto(s.evDrops)
	return bus
}

// jobLive reports whether the pool still runs or queues job id.
func (s *Server) jobLive(id string) bool {
	snap, ok := s.pool.Get(id)
	return ok && !snap.Status.Terminal()
}

// writeSubmitError maps a pool submission error to its response: a full
// queue is 503 with Retry-After, a closed pool 503, anything else 500.
func writeSubmitError(w http.ResponseWriter, err error) {
	code := http.StatusInternalServerError
	switch {
	case errors.Is(err, jobs.ErrQueueFull):
		w.Header().Set("Retry-After", "1")
		code = http.StatusServiceUnavailable
	case errors.Is(err, jobs.ErrClosed):
		code = http.StatusServiceUnavailable
	}
	writeJSON(w, code, errorResponse{Error: err.Error()})
}

// jobView is the lifecycle half of a job-backed record's response.
type jobView struct {
	status, enqueued, started, finished, err string
	attempts                                 int
	result                                   json.RawMessage
}

// jobViewOf reads the pool's snapshot of job id into a jobView.
func (s *Server) jobViewOf(id string) jobView {
	snap, ok := s.pool.Get(id)
	if !ok { // forgotten by the pool out from under us; treat as lost
		return jobView{status: string(jobs.StatusFailed), err: "job state lost"}
	}
	v := jobView{
		status:   string(snap.Status),
		enqueued: stamp(snap.EnqueuedAt),
		started:  stamp(snap.StartedAt),
		finished: stamp(snap.FinishedAt),
		attempts: snap.Attempts,
	}
	if body, isRaw := snap.Result.(json.RawMessage); isRaw && snap.Status == jobs.StatusDone {
		v.result = body
	}
	if snap.Err != nil {
		v.err = snap.Err.Error()
	}
	return v
}

// stamp formats t for a response, "" when unset.
func stamp(t time.Time) string {
	if t.IsZero() {
		return ""
	}
	return t.UTC().Format(time.RFC3339Nano)
}
