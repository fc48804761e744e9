package server

// Sweep endpoints: POST /v1/sweeps accepts a parameter-grid spec
// (internal/sweep), schedules its cells on the shared worker pool, and
// exposes per-cell progress (SSE), per-cell records, and the merged
// paper-style report. Sweep cells and single experiments share one
// compute path (sweep.Runner): an identical configuration from either
// kind is served byte-identically from the cache or its live computation.

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"time"

	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/sweep"
)

// Cache-lookup origins: who asked. Single submissions and sweep cells
// are tallied separately on /metrics.
const (
	originJob   = "job"
	originSweep = sweep.Origin
)

// SweepSubmitRequest is the POST /v1/sweeps body.
type SweepSubmitRequest struct {
	Spec sweep.Spec `json:"spec"`
}

// SweepResponse is the JSON shape of one sweep summary.
type SweepResponse struct {
	ID         string       `json:"id"`
	Name       string       `json:"name,omitempty"`
	Status     string       `json:"status"`
	Axes       []string     `json:"axes,omitempty"`
	Counts     sweep.Counts `json:"counts"`
	CreatedAt  string       `json:"created_at,omitempty"`
	FinishedAt string       `json:"finished_at,omitempty"`
}

// SweepListResponse is the GET /v1/sweeps body.
type SweepListResponse struct {
	Sweeps []SweepResponse `json:"sweeps"`
}

// SweepCellResponse is one cell record in the per-cell listing.
type SweepCellResponse struct {
	Index         int        `json:"index"`
	Label         string     `json:"label"`
	Coords        []string   `json:"coords,omitempty"`
	Status        string     `json:"status"`
	Cached        bool       `json:"cached,omitempty"`
	CoalescedOnto *int       `json:"coalesced_onto,omitempty"`
	Config        sim.Config `json:"config"`

	// Result is the report.AggregateSummary encoding, byte-identical to
	// the single-experiment result for the same configuration; only
	// embedded when the listing asks for ?results=1.
	Result json.RawMessage `json:"result,omitempty"`
	Error  string          `json:"error,omitempty"`
}

// SweepCellsResponse is the GET /v1/sweeps/{id}/cells body.
type SweepCellsResponse struct {
	Sweep  string              `json:"sweep"`
	Status string              `json:"status"`
	Cells  []SweepCellResponse `json:"cells"`
}

func sweepResponseOf(sw *sweep.Sweep) SweepResponse {
	snap := sw.Snapshot()
	return SweepResponse{
		ID:         snap.ID,
		Name:       snap.Name,
		Status:     string(snap.Status),
		Axes:       snap.Axes,
		Counts:     snap.Counts,
		CreatedAt:  snap.CreatedAt.UTC().Format(time.RFC3339Nano),
		FinishedAt: stamp(snap.FinishedAt),
	}
}

func cellResponseOf(c sweep.CellState, withResult bool) SweepCellResponse {
	resp := SweepCellResponse{
		Index:  c.Index,
		Label:  c.Label,
		Coords: c.Coords,
		Status: string(c.Status),
		Cached: c.Source == sweep.FromCache,
		Config: c.Config,
		Error:  c.Err,
	}
	if c.DupOf >= 0 {
		dup := c.DupOf
		resp.CoalescedOnto = &dup
	}
	if withResult {
		resp.Result = c.Result
	}
	return resp
}

// capCells clamps a client spec's expansion to the server's cell cap;
// the spec may ask for less but not more.
func (o Options) capCells(spec sweep.Spec) sweep.Spec {
	if spec.MaxCells == 0 || spec.MaxCells > o.SweepMaxCells {
		spec.MaxCells = o.SweepMaxCells
	}
	return spec
}

func (s *Server) handleSweepSubmit(w http.ResponseWriter, r *http.Request) {
	var req SweepSubmitRequest
	if !decodeBody(w, r, &req) {
		return
	}
	spec := s.opts.capCells(req.Spec)
	if err := spec.Validate(); err != nil {
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: err.Error()})
		return
	}
	cells, err := spec.CellCount()
	if err != nil {
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: err.Error()})
		return
	}

	// Size the replay ring to hold the whole sweep's progress (two
	// events per cell plus the terminal sweep event), so a client
	// connecting after completion still drains every event.
	bus := s.newBus(2*cells + 16)
	s.mu.Lock()
	id := s.sweepRecs.mint()
	s.mu.Unlock()
	// The sweep outlives this request: run it on the background context
	// (DELETE /v1/sweeps/{id} cancels it). Only the request's span
	// context rides along, parenting the sweep and cell spans.
	sctx := obs.WithSpan(context.Background(), obs.SpanFrom(r.Context()))
	sw, err := s.sweeps.Start(sctx, id, spec, bus)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: err.Error()})
		return
	}
	s.mu.Lock()
	s.sweepRecs.add(id, sw)
	s.mu.Unlock()
	if s.logger != nil {
		s.logger.Info("sweep submitted", "id", id, "cells", cells, "axes", spec.AxisNames())
	}
	// Mark the sweep's lifetime on the metrics history timeline, so a
	// latency spike on a sparkline can be read against what was running.
	if s.hist != nil {
		s.hist.Annotate("sweep", fmt.Sprintf("%s started (%d cells)", id, cells))
		go func() {
			<-sw.Done()
			snap := sw.Snapshot()
			s.hist.Annotate("sweep", fmt.Sprintf("%s %s (%d done, %d failed)",
				id, snap.Status, snap.Counts.Done, snap.Counts.Failed))
		}()
	}
	w.Header().Set("Location", "/v1/sweeps/"+id)
	writeJSON(w, http.StatusAccepted, sweepResponseOf(sw))
}

func (s *Server) handleSweepCells(w http.ResponseWriter, r *http.Request) {
	sw, ok := s.sweepRecs.resolve(w, r)
	if !ok {
		return
	}
	filter, err := statusFilter(r)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: err.Error()})
		return
	}
	withResults := r.URL.Query().Get("results") == "1"
	cells := sw.Cells(filter)
	out := SweepCellsResponse{
		Sweep:  sw.ID(),
		Status: string(sw.Snapshot().Status),
		Cells:  make([]SweepCellResponse, 0, len(cells)),
	}
	for _, c := range cells {
		out.Cells = append(out.Cells, cellResponseOf(c, withResults))
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleSweepReport(w http.ResponseWriter, r *http.Request) {
	sw, ok := s.sweepRecs.resolve(w, r)
	if !ok {
		return
	}
	tbl, err := sw.MergedTable()
	if err != nil {
		writeJSON(w, http.StatusInternalServerError, errorResponse{Error: err.Error()})
		return
	}
	switch r.URL.Query().Get("format") {
	case "", "table":
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		_, _ = w.Write([]byte(tbl.Render()))
	case "csv":
		w.Header().Set("Content-Type", "text/csv; charset=utf-8")
		_, _ = w.Write([]byte(tbl.CSV()))
	default:
		writeJSON(w, http.StatusBadRequest,
			errorResponse{Error: "unknown report format (want table or csv)"})
	}
}
