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

	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/sweep"
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
		CreatedAt:  stamp(snap.CreatedAt),
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

// sweepKind is the sweep record kind: a POST /v1/sweeps body, its
// normalised form, the running sweep and its JSON shape.
type sweepKind = kind[SweepSubmitRequest, sweepSubmit, *sweep.Sweep, SweepResponse]

// sweepSubmit is a normalised sweep body: its planned cells, and an
// event bus whose ring replays a whole sweep (two events a cell, one end).
type sweepSubmit struct {
	plan *sweep.Plan
	bus  *obs.Bus
}

func (s *Server) newSweeps() *sweepKind {
	return &sweepKind{
		srv: s, route: "/v1/sweeps", noun: "sweep", prefix: "swp-", cap: sweepRecordCap,
		origin: sweep.Origin,
		prepare: func(req SweepSubmitRequest) (sweepSubmit, error) {
			p, err := s.opts.prepareSweep(req)
			if err == nil {
				p.bus = s.newBus(2*p.plan.Len() + 16)
			}
			return p, err
		},
		start: s.startSweep,
		logAttrs: func(sw *sweep.Sweep, _ bool) []any {
			snap := sw.Snapshot()
			return []any{"cells", snap.Counts.Cells, "axes", snap.Axes}
		},
		live: func(sw *sweep.Sweep) bool {
			select {
			case <-sw.Done():
				return false
			default:
				return true
			}
		},
		view:   sweepResponseOf,
		bus:    (*sweep.Sweep).Bus,
		cancel: func(sw *sweep.Sweep) bool { sw.Cancel(); return true },
		byID:   make(map[string]*sweep.Sweep),
	}
}

// prepareSweep plans a client spec under the server's cell cap:
// expansion and cell keying happen here, before the submit path takes
// the server mutex.
func (o Options) prepareSweep(req SweepSubmitRequest) (sweepSubmit, error) {
	plan, err := sweep.NewPlan(o.capCells(req.Spec))
	return sweepSubmit{plan: plan}, err
}

// capCells clamps a spec's expansion to the server's cell cap: the spec
// may ask for less but not more.
func (o Options) capCells(spec sweep.Spec) sweep.Spec {
	if spec.MaxCells == 0 || spec.MaxCells > o.SweepMaxCells {
		spec.MaxCells = o.SweepMaxCells
	}
	return spec
}

// startSweep starts p's planned cells on the runner under a new ID.
func (s *Server) startSweep(r *http.Request, p sweepSubmit) (*sweep.Sweep, string, bool, error) {
	id := s.sweeps.mint()
	// The sweep outlives this request: run it on the background context
	// (DELETE /v1/sweeps/{id} cancels it). Only the request's span
	// context rides along, parenting the sweep and cell spans.
	sctx := obs.WithSpan(context.Background(), obs.SpanFrom(r.Context()))
	sw := s.runner.Start(sctx, id, p.plan, p.bus)
	// Mark the sweep's lifetime on the metrics history timeline, so a
	// latency spike on a sparkline can be read against what was running.
	s.hist.Annotate("sweep", fmt.Sprintf("%s started (%d cells)", id, p.plan.Len()))
	go func() {
		<-sw.Done()
		snap := sw.Snapshot()
		s.hist.Annotate("sweep", fmt.Sprintf("%s %s (%d done, %d failed)",
			id, snap.Status, snap.Counts.Done, snap.Counts.Failed))
	}()
	return sw, id, true, nil
}

func (s *Server) handleSweepCells(w http.ResponseWriter, r *http.Request) {
	sw, ok := s.sweeps.resolve(w, r)
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
	sw, ok := s.sweeps.resolve(w, r)
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
