package server

// Record kinds: experiments, sweeps and scenarios share one record
// lifecycle. A body is decoded, normalised and started under a minted
// ID; the record is indexed in creation order; GET/list/events/cancel
// serve it; and the oldest terminal records are pruned past a fixed
// cap. A record owns the handle its work runs under (a scenario its
// pool job, an experiment its flight membership; a sweep is its own
// handle), and nothing else keeps a terminal job, so pruning a record
// lets its job go with it. A kind plugs in only what differs: its
// route, noun, ID prefix and cap, how a body is normalised (prepare)
// and its work begun (start), when a record is live, how it renders,
// which bus streams its events and how it is cancelled. handleSubmit
// and mount own the rest.

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

// kind is one record kind: Q is its POST body, P the body's normalised
// form, T the server-side record and R its JSON shape. byID, mint,
// add, records and prune must be used with srv.mu held; the handlers
// take it themselves.
type kind[Q, P, T any, R response[R]] struct {
	srv    *Server
	route  string // "/v1/experiments"; the listing's key is its last segment
	noun   string // "experiment": names the kind in errors and logs
	prefix string // "exp-": minted IDs are prefix + counter
	cap    int
	origin string // latency-origin label of the kind's computed work; "" when none

	// prepare normalises a decoded body before srv.mu is taken, so it
	// does the kind's costly per-body work; see writeSubmitError.
	prepare func(Q) (P, error)
	// start begins p's work with srv.mu held. It returns a new record
	// under an ID it mints, or an indexed record that already answers
	// for p, and whether the work was queued under id (202 + Location;
	// otherwise 200).
	start func(r *http.Request, p P) (rec T, id string, queued bool, err error)
	// logAttrs are the kind's fields on the submit log line.
	logAttrs func(rec T, queued bool) []any

	live   func(T) bool     // a live record stops the prune
	view   func(T) R        // the GET body
	bus    func(T) *obs.Bus // the record's event stream; nil for a cached or joined experiment
	cancel func(T) bool     // false answers 409 (nothing left to cancel)

	byID  map[string]T
	order []string
	next  uint64
	count atomic.Int64 // len(byID), read by lock-free gauges
}

// mount registers the kind's five shared routes.
func (k *kind[Q, P, T, R]) mount(mux *http.ServeMux) {
	mux.HandleFunc("POST "+k.route, k.handleSubmit)
	mux.HandleFunc("GET "+k.route, k.handleList)
	mux.HandleFunc("GET "+k.route+"/{id}", k.handleGet)
	mux.HandleFunc("GET "+k.route+"/{id}/events", k.handleEvents)
	mux.HandleFunc("DELETE "+k.route+"/{id}", k.handleCancel)
}

// mint reserves the kind's next ID.
func (k *kind[Q, P, T, R]) mint() string {
	k.next++
	return k.prefix + strconv.FormatUint(k.next, 10)
}

// add indexes rec under an ID from mint, then prunes.
func (k *kind[Q, P, T, R]) add(id string, rec T) {
	k.byID[id] = rec
	k.order = append(k.order, id)
	k.prune()
}

// records returns the indexed records, oldest first.
func (k *kind[Q, P, T, R]) records() []T {
	out := make([]T, len(k.order))
	for i, id := range k.order {
		out[i] = k.byID[id]
	}
	return out
}

// prune evicts the oldest terminal records above cap, stopping at the
// first live one. An evicted record takes its job with it: the pool
// holds no terminal job, and a terminal job pins no closure.
func (k *kind[Q, P, T, R]) prune() {
	for len(k.order) > k.cap {
		id := k.order[0]
		if k.live(k.byID[id]) {
			break
		}
		k.order = k.order[1:]
		delete(k.byID, id)
	}
	k.count.Store(int64(len(k.byID)))
}

// handleSubmit is every kind's POST: strict decode and prepare, then
// start and index the record under srv.mu, answering 202 with a
// Location for queued work and 200 otherwise.
func (k *kind[Q, P, T, R]) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var body Q
	if !decodeBody(w, r, &body) {
		return
	}
	p, err := k.prepare(body)
	if err != nil {
		writeSubmitError(w, err)
		return
	}
	s := k.srv
	s.mu.Lock()
	rec, id, queued, err := k.start(r, p)
	if err != nil {
		s.mu.Unlock()
		writeSubmitError(w, err)
		return
	}
	if _, known := k.byID[id]; !known {
		k.add(id, rec)
	}
	resp := k.view(rec)
	s.mu.Unlock()
	code := http.StatusOK
	if queued {
		code = http.StatusAccepted
		w.Header().Set("Location", k.route+"/"+id)
	}
	if s.logger != nil {
		s.logger.Info(k.noun+" submitted", append([]any{"id", id}, k.logAttrs(rec, queued)...)...)
	}
	writeJSON(w, code, resp)
}

// resolve looks up the {id} path value, writing the kind's 404 on a miss.
func (k *kind[Q, P, T, R]) resolve(w http.ResponseWriter, r *http.Request) (T, bool) {
	id := r.PathValue("id")
	k.srv.mu.Lock()
	rec, ok := k.byID[id]
	k.srv.mu.Unlock()
	if !ok {
		writeJSON(w, http.StatusNotFound, errorResponse{Error: "unknown " + k.noun + " " + id})
	}
	return rec, ok
}

func (k *kind[Q, P, T, R]) handleGet(w http.ResponseWriter, r *http.Request) {
	if rec, ok := k.resolve(w, r); ok {
		writeJSON(w, http.StatusOK, k.view(rec))
	}
}

// handleList serves the kind's records oldest first, filtered by
// ?status= and without result bytes, under the route's last segment
// ({"sweeps": [...]}).
func (k *kind[Q, P, T, R]) handleList(w http.ResponseWriter, r *http.Request) {
	filter, err := statusFilter(r)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: err.Error()})
		return
	}
	k.srv.mu.Lock()
	recs := k.records()
	k.srv.mu.Unlock()
	out := make([]R, 0, len(recs))
	for _, rec := range recs {
		resp := k.view(rec)
		if filter != "" && resp.state() != string(filter) {
			continue
		}
		out = append(out, resp.summary())
	}
	writeJSON(w, http.StatusOK, map[string][]R{listKey(k.route): out})
}

// listKey is the listing body's one key: the route's last segment.
func listKey(route string) string { return route[len("/v1/"):] }

// handleEvents streams one record's event bus as SSE (see streamSSE).
func (k *kind[Q, P, T, R]) handleEvents(w http.ResponseWriter, r *http.Request) {
	rec, ok := k.resolve(w, r)
	if !ok {
		return
	}
	bus := k.bus(rec)
	if bus == nil {
		writeJSON(w, http.StatusNotFound,
			errorResponse{Error: "no event stream for " + r.PathValue("id") + " (cached or joined)"})
		return
	}
	k.srv.streamSSE(w, r, bus)
}

func (k *kind[Q, P, T, R]) handleCancel(w http.ResponseWriter, r *http.Request) {
	rec, ok := k.resolve(w, r)
	if !ok {
		return
	}
	id := r.PathValue("id")
	if !k.cancel(rec) {
		writeJSON(w, http.StatusConflict, errorResponse{Error: k.noun + " " + id + " is not cancellable"})
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

// maxBodyBytes bounds every POST body.
const maxBodyBytes = 1 << 20

// decodeBody strictly decodes a submission body into v (unknown fields
// are rejected), writing the 413 when the body exceeds maxBodyBytes and
// the 400 when it does not decode.
func decodeBody(w http.ResponseWriter, r *http.Request, v any) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	err := dec.Decode(v)
	if err != nil {
		code, msg := http.StatusBadRequest, "bad request body: "+err.Error()
		if tooBig := (*http.MaxBytesError)(nil); errors.As(err, &tooBig) {
			code, msg = http.StatusRequestEntityTooLarge, err.Error()
		}
		writeJSON(w, code, errorResponse{Error: msg})
	}
	return err == nil
}

// newBus returns a record's event bus, replaying up to ring events.
func (s *Server) newBus(ring int) *obs.Bus {
	bus := obs.NewBus(ring)
	bus.CountDropsInto(s.evDrops)
	return bus
}

// writeSubmitError maps a prepare or start error to its response: a
// full queue is 503 with Retry-After, a closed pool 503 and an
// internalError 500. Anything else is the body's fault: 400.
func writeSubmitError(w http.ResponseWriter, err error) {
	code := http.StatusBadRequest
	switch {
	case errors.Is(err, jobs.ErrQueueFull):
		w.Header().Set("Retry-After", "1")
		code = http.StatusServiceUnavailable
	case errors.Is(err, jobs.ErrClosed):
		code = http.StatusServiceUnavailable
	case errors.As(err, new(internalError)):
		code = http.StatusInternalServerError
	}
	writeJSON(w, code, errorResponse{Error: err.Error()})
}

// internalError marks a failure that is the server's, not the body's.
type internalError struct{ error }

// jobView is the lifecycle half of a job-backed record's response.
type jobView struct {
	status, enqueued, started, finished, err string
	result                                   json.RawMessage
}

// jobViewOf reads a job snapshot into a jobView.
func jobViewOf(snap jobs.Snapshot) jobView {
	v := jobView{
		status:   string(snap.Status),
		enqueued: stamp(snap.EnqueuedAt),
		started:  stamp(snap.StartedAt),
		finished: stamp(snap.FinishedAt),
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
