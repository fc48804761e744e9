package server

// Service-level trace context. The middleware adopts or mints an
// X-Trace-Id per request, opens the request span, and threads the span
// context through r.Context() so the job, sweep and sim layers parent
// their spans under it. GET /v1/traces/{id} exports the joined tree —
// service spans plus any linked per-run ring traces — as Chrome
// trace-event JSON (load it in chrome://tracing or Perfetto).

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
			// Recording is off; the ID still propagates end to end so the
			// per-run ring traces stay linkable.
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

// handleTraceGet serves one joined trace: every service span recorded
// under the ID plus the rebased ring-buffer trace of each experiment
// run that executed under it. Chrome trace-event JSON by default,
// JSONL with ?format=jsonl.
func (s *Server) handleTraceGet(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if s.spans == nil {
		writeJSON(w, http.StatusNotFound, errorResponse{Error: "service tracing disabled"})
		return
	}
	if !s.spans.Contains(id) {
		writeJSON(w, http.StatusNotFound, errorResponse{Error: "unknown trace " + id})
		return
	}
	// Join the per-run ring traces of experiments submitted under this
	// trace, rebased onto the span store's clock.
	var extra []obs.Event
	s.mu.Lock()
	for _, exp := range s.experiments.records() {
		if exp.traceID == id && exp.tr != nil {
			extra = append(extra, exp.tr.RebasedEvents(s.spans.Epoch())...)
		}
	}
	s.mu.Unlock()
	switch r.URL.Query().Get("format") {
	case "", "chrome":
		w.Header().Set("Content-Type", "application/json")
		_ = s.spans.WriteChromeTrace(w, id, extra)
	case "jsonl":
		w.Header().Set("Content-Type", "application/x-ndjson")
		_ = s.spans.WriteJSONL(w, id, extra)
	default:
		writeJSON(w, http.StatusBadRequest,
			errorResponse{Error: "unknown trace format (want chrome or jsonl)"})
	}
}
