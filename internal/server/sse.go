package server

// Server-Sent Events: GET /v1/experiments/{id}/events streams an
// experiment's telemetry bus (round progress, frame censuses, audit
// hits, job lifecycle) in text/event-stream framing. The protocol
// surface is deliberately the plain SSE triad — `id:`, `event:`,
// `data:` — plus comment heartbeats, so `curl -N` is a complete client;
// reconnecting with the standard Last-Event-ID header resumes from the
// bus's replay ring.

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"

	"repro/internal/obs"
)

// writeSSEEvent writes one event in text/event-stream framing: the id,
// event and data lines followed by the blank-line terminator. The data
// line is the event payload as a single JSON object (`{}` when nil —
// the data field is mandatory for the event to be dispatched).
func writeSSEEvent(w io.Writer, ev obs.StreamEvent) error {
	data := []byte("{}")
	if ev.Data != nil {
		var err error
		if data, err = json.Marshal(ev.Data); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintf(w, "id: %d\nevent: %s\ndata: %s\n\n", ev.ID, ev.Type, data)
	return err
}

// writeSSEHeartbeat writes one comment line, which SSE clients ignore
// but which keeps idle connections visibly alive through proxies.
func writeSSEHeartbeat(w io.Writer) error {
	_, err := io.WriteString(w, ": heartbeat\n\n")
	return err
}

// lastEventID extracts the resume position: the standard Last-Event-ID
// header, or an `after` query parameter for curl convenience.
func lastEventID(r *http.Request) uint64 {
	raw := r.Header.Get("Last-Event-ID")
	if raw == "" {
		raw = r.URL.Query().Get("after")
	}
	id, err := strconv.ParseUint(raw, 10, 64)
	if err != nil {
		return 0
	}
	return id
}

// streamSSE serves one bus subscription as an SSE response: events
// retained in the replay ring and newer than Last-Event-ID first, then
// live events until the bus closes (the record went terminal), the
// subscriber lags EventBuffer events behind and is dropped, or the
// client hangs up. Every record kind's /events route and the alert
// stream serve through it.
func (s *Server) streamSSE(w http.ResponseWriter, r *http.Request, bus *obs.Bus) {
	flusher, ok := w.(http.Flusher)
	if !ok {
		writeJSON(w, http.StatusInternalServerError, errorResponse{Error: "response writer cannot stream"})
		return
	}

	sub := bus.Subscribe(s.opts.EventBuffer, lastEventID(r))
	defer sub.Close()

	h := w.Header()
	h.Set("Content-Type", "text/event-stream")
	h.Set("Cache-Control", "no-cache")
	h.Set("X-Accel-Buffering", "no") // disable proxy buffering
	w.WriteHeader(http.StatusOK)
	flusher.Flush()

	heartbeat := time.NewTicker(s.opts.HeartbeatInterval)
	defer heartbeat.Stop()
	for {
		select {
		case ev, open := <-sub.Events():
			if !open {
				return // bus closed or this subscriber was dropped
			}
			if writeSSEEvent(w, ev) != nil {
				return
			}
			flusher.Flush()
		case <-heartbeat.C:
			if writeSSEHeartbeat(w) != nil {
				return
			}
			flusher.Flush()
		case <-r.Context().Done():
			return
		}
	}
}

// handleAudit serves the shadow-oracle auditor's confusion matrix and
// exemplar ring as JSON.
func (s *Server) handleAudit(w http.ResponseWriter, r *http.Request) {
	if s.auditor == nil {
		writeJSON(w, http.StatusNotFound,
			errorResponse{Error: "auditing disabled (start the server with EnableAudit)"})
		return
	}
	writeJSON(w, http.StatusOK, s.auditor.Report())
}
