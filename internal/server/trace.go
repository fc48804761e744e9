package server

// Trace context. The middleware adopts or mints an X-Trace-Id per
// request, opens the request span, and threads the span context through
// r.Context() so the job, sweep and sim layers parent their spans under
// it, down to single frames. Every trace endpoint is a view over the
// one trace store: GET /v1/traces/{id} and /v1/experiments/{id}/trace
// export one trace, /debug/trace every retained one, as Chrome
// trace-event JSON (load it in chrome://tracing or Perfetto) or JSONL.

import (
	"net/http"
	"strings"

	"repro/internal/obs"
)

// TraceHeader is the trace-propagation request/response header.
const TraceHeader = "X-Trace-Id"

// traceHandler is the trace-context middleware. A request is traced
// when the client propagates an X-Trace-Id or when it creates work
// (POST); read-only polls without a header stay untraced, so status
// polling cannot churn the bounded trace store. Infra endpoints
// (/metrics, /healthz, /debug/...) are never traced.
func (s *Server) traceHandler(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id := r.Header.Get(TraceHeader)
		if !obs.ValidTraceID(id) {
			id = ""
		}
		p := r.URL.Path
		if (id == "" && r.Method != http.MethodPost) ||
			p == "/metrics" || p == "/healthz" || strings.HasPrefix(p, "/debug/") {
			next.ServeHTTP(w, r)
			return
		}
		sc := s.spans.StartTrace(id) // nil-safe: mints the ID even when disabled
		w.Header().Set(TraceHeader, sc.TraceID())
		h := sc.Start("http", r.Method+" "+p)
		switch {
		case h.Live():
			r = r.WithContext(obs.WithSpan(r.Context(), h.Context()))
		case sc.TraceID() != "":
			// Recording is off; the ID still propagates end to end.
			r = r.WithContext(obs.WithSpan(r.Context(), sc))
		}
		rec := &statusRecorder{ResponseWriter: w, status: http.StatusOK}
		next.ServeHTTP(rec, r)
		if h.Live() {
			h.End(obs.SA("method", r.Method), obs.SA("path", p),
				obs.SA("status", rec.status))
		}
	})
}

// TracesResponse is the GET /v1/traces body.
type TracesResponse struct {
	Traces []obs.TraceSummary `json:"traces"`
}

// handleTraces lists the retained service-level traces, oldest first.
func (s *Server) handleTraces(w http.ResponseWriter, r *http.Request) {
	if s.spans == nil {
		writeJSON(w, http.StatusNotFound, errorResponse{Error: "service tracing disabled"})
		return
	}
	sums := s.spans.Summaries()
	if sums == nil {
		sums = []obs.TraceSummary{}
	}
	writeJSON(w, http.StatusOK, TracesResponse{Traces: sums})
}

// handleTraceGet serves one trace: every span recorded under the ID,
// from the request span down to the frames of the runs it caused.
func (s *Server) handleTraceGet(w http.ResponseWriter, r *http.Request) {
	s.writeTrace(w, r, r.PathValue("id"))
}

// handleTrace serves the trace an experiment ran under. Cached records
// never ran, so they have none; nor does any record once its trace has
// been evicted from the store.
func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	exp, ok := s.experiments.resolve(w, r)
	if !ok {
		return
	}
	if exp.cached {
		writeJSON(w, http.StatusNotFound,
			errorResponse{Error: "no trace recorded for " + exp.id + " (cached result)"})
		return
	}
	s.writeTrace(w, r, exp.traceID)
}

// handleDebugTrace serves every retained span of every trace on the
// store's one clock; with tracing disabled the event list is empty.
func (s *Server) handleDebugTrace(w http.ResponseWriter, r *http.Request) {
	s.writeTrace(w, r, "")
}

// writeTrace exports one trace from the store, or all of them for
// traceID "": Chrome trace-event JSON by default, JSONL with
// ?format=jsonl.
func (s *Server) writeTrace(w http.ResponseWriter, r *http.Request, traceID string) {
	if traceID != "" && !s.spans.Contains(traceID) {
		writeJSON(w, http.StatusNotFound,
			errorResponse{Error: "no trace " + traceID + " (unknown, evicted or tracing disabled)"})
		return
	}
	switch r.URL.Query().Get("format") {
	case "", "chrome":
		w.Header().Set("Content-Type", "application/json")
		_ = s.spans.WriteChromeTrace(w, traceID)
	case "jsonl":
		w.Header().Set("Content-Type", "application/x-ndjson")
		_ = s.spans.WriteJSONL(w, traceID)
	default:
		writeJSON(w, http.StatusBadRequest,
			errorResponse{Error: "unknown trace format (want chrome or jsonl)"})
	}
}
