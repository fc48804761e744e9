package sweep

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"strconv"
	"sync"
	"time"

	"repro/internal/jobs"
	"repro/internal/obs"
	"repro/internal/report"
	"repro/internal/rescache"
)

// Origin attributes sweep cells' cache lookups and Done reports.
const Origin = "sweep"

// CellState is the live record of one cell: the expanded Cell plus its
// content key, lifecycle status, result provenance and outcome. Cells
// reuse the jobs lifecycle vocabulary — queued, running, done, failed,
// canceled.
type CellState struct {
	Cell
	// Key is the cell's rescache content address.
	Key string
	// Status is the cell's lifecycle state.
	Status jobs.Status
	// Source is where the result came from, once the cell is terminal.
	Source Source
	// DupOf is the index of the earlier identical cell this one
	// coalesced onto, or -1 for a primary cell.
	DupOf int
	// Result is the report.AggregateSummary encoding, byte-identical to
	// the single-job result for the same canonical configuration.
	Result json.RawMessage
	// Err is the failure message for failed cells.
	Err string
}

// Source is where a cell's result came from.
type Source string

const (
	FromRun       Source = "run"       // the cell's own flight (or none: it failed or was canceled first)
	FromCache     Source = "cache"     // the result cache
	FromCoalesced Source = "coalesced" // an identical cell of the sweep, or another caller's flight
)

// cache is the source's Done.Cache disposition.
func (src Source) cache() string {
	switch src {
	case FromCache:
		return "hit"
	case FromRun:
		return "miss"
	}
	return string(src)
}

// Counts summarises a sweep's cell outcomes.
type Counts struct {
	Cells     int `json:"cells"`
	Done      int `json:"done"` // includes cached and coalesced cells
	Failed    int `json:"failed"`
	Canceled  int `json:"canceled"`
	Cached    int `json:"cached"`
	Coalesced int `json:"coalesced"`
}

// Terminal reports whether every cell reached a terminal state.
func (c Counts) Terminal() bool { return c.Done+c.Failed+c.Canceled == c.Cells }

// Snapshot is a copy of a sweep's externally visible state.
type Snapshot struct {
	ID         string
	Name       string
	Axes       []string
	Status     jobs.Status // running | done | failed | canceled
	Counts     Counts
	CreatedAt  time.Time
	FinishedAt time.Time // zero until terminal
}

// Sweep is one scheduled grid. Create it with Runner.Start; it is safe
// for concurrent use.
type Sweep struct {
	*Plan   // its cells are guarded by mu
	id      string
	r       *Runner
	bus     *obs.Bus
	cancel  context.CancelFunc
	done    chan struct{}
	span    obs.SpanHandle  // the sweep-level span, ended in finish
	sctx    obs.SpanContext // parent context for per-cell spans
	window  chan struct{}   // one token per flight the sweep leads: pool workers + 2
	pending sync.WaitGroup  // claimed cells not yet settled

	mu         sync.Mutex
	counts     Counts
	canceled   bool
	createdAt  time.Time
	finishedAt time.Time
}

// Plan is a spec expanded and keyed, each duplicate cell linked to the
// first of its key: the costly part of starting a sweep, done before
// the caller takes its own locks. A plan starts once.
type Plan struct {
	spec  Spec
	cells []CellState
	dups  map[int][]int // primary index → coalesced cell indexes
}

// NewPlan expands spec and keys its cells.
func NewPlan(spec Spec) (*Plan, error) {
	cells, err := spec.Expand()
	if err != nil {
		return nil, err
	}
	p := &Plan{spec: spec, cells: make([]CellState, len(cells)), dups: make(map[int][]int)}
	firstByKey := make(map[string]int, len(cells))
	for i, c := range cells {
		key, err := rescache.ConfigKey(c.Config)
		if err != nil {
			return nil, fmt.Errorf("sweep: keying cell %d: %w", i, err)
		}
		p.cells[i] = CellState{Cell: c, Key: key, Status: jobs.StatusQueued, DupOf: -1}
		if first, dup := firstByKey[key]; dup {
			p.cells[i].DupOf = first
			p.dups[first] = append(p.dups[first], i)
		} else {
			firstByKey[key] = i
		}
	}
	return p, nil
}

// Len is the number of cells p runs.
func (p *Plan) Len() int { return len(p.cells) }

// Start begins scheduling p's cells; it cannot fail, since NewPlan has
// checked them. The returned sweep is already running; ctx cancellation
// stops feeding new cells, and Cancel also takes the claimed ones off
// their flights. bus, when non-nil, receives one "cell" event per cell
// state change and a terminal "sweep" event, and is closed when the
// sweep finishes.
func (r *Runner) Start(ctx context.Context, id string, p *Plan, bus *obs.Bus) *Sweep {
	// The span context rides in on ctx (obs.WithSpan); only the trace
	// position is kept — the derived ctx below governs cancellation.
	span := obs.SpanFrom(ctx).Start("sweep", "sweep "+id)
	ctx, cancel := context.WithCancel(ctx)
	s := &Sweep{
		Plan: p, id: id, r: r, bus: bus, cancel: cancel, done: make(chan struct{}), span: span, sctx: span.Context(),
		window: make(chan struct{}, r.Pool.Stats().Workers+2),
		counts: Counts{Cells: len(p.cells)}, createdAt: time.Now(),
	}
	r.started.Add(1)
	go s.run(ctx)
	return s
}

// run is the sweep's feeder: it walks the primary cells in order, serves
// cache hits inline and claims the rest, leading at most a window of
// flights at a time so a huge sweep cannot fill the bounded queue. It
// returns once every cell is terminal. Cell, Key and DupOf are fixed
// after Start, so it reads them without the lock.
func (s *Sweep) run(ctx context.Context) {
	r := s.r
	for i := range s.cells {
		if s.cells[i].DupOf >= 0 {
			continue // resolved when its primary finishes
		}
		span := s.sctx.Start("cell", s.cells[i].Label)
		if ctx.Err() == nil {
			if body, hit := r.Lookup(s.cells[i].Key, Origin); hit {
				s.finishCell(i, span, jobs.StatusDone, body, nil, FromCache, 0, 0)
				continue
			}
			start := time.Now()
			select {
			case s.window <- struct{}{}:
				if r.WindowWait != nil {
					r.WindowWait.Observe(time.Since(start).Seconds())
				}
				s.claim(ctx, i, span)
				continue
			case <-ctx.Done():
			}
		}
		s.finishCell(i, span, jobs.StatusCanceled, nil, context.Canceled, FromRun, 0, 0)
	}
	s.pending.Wait()
	s.finish()
}

// claim resolves one primary cell through Runner.Claim, holding a
// window slot that a leader keeps until it is settled. A full pool
// queue is waited out with backoff and a fresh, uncounted Claim.
func (s *Sweep) claim(ctx context.Context, i int, span obs.SpanHandle) {
	c := &s.cells[i]
	jobID := s.id + "/c" + strconv.Itoa(i)
	s.pending.Add(1) // before Claim: a led flight may land before Claim returns
	req := Request{ID: jobID, Key: c.Key, Config: c.Config, Origin: Origin, Workers: max(s.spec.CellWorkers, 1), Span: span.Context(), Start: func() { s.markRunning(i) },
		// The leader frees its slot; a joined cell ends with the flight.
		Settle: func(snap jobs.Snapshot) {
			defer s.pending.Done()
			src, qw, rt := FromCoalesced, time.Duration(0), time.Duration(0)
			if snap.ID == jobID {
				<-s.window
				src, qw, rt = FromRun, snap.QueueWait(), snap.RunTime()
			}
			body, _ := snap.Result.(json.RawMessage)
			s.finishCell(i, span, snap.Status, body, snap.Err, src, qw, rt)
		}}
	m, body, err := s.r.Claim(ctx, req)
	for backoff := 2 * time.Millisecond; errors.Is(err, jobs.ErrQueueFull); backoff = min(2*backoff, 128*time.Millisecond) {
		select {
		case <-time.After(backoff):
			m, body, err = s.r.Claim(ctx, req)
		case <-ctx.Done():
			err = context.Canceled
		}
	}
	if m != nil {
		if !m.Leads() {
			<-s.window // joined: settled when the flight lands
		}
		return
	}
	<-s.window
	s.pending.Done()
	status, src := jobs.StatusDone, FromCache // bytes published since the lookup
	if err != nil {
		status, src = jobs.StatusFailed, FromRun
		if errors.Is(err, context.Canceled) || errors.Is(err, jobs.ErrClosed) {
			status = jobs.StatusCanceled
		}
	}
	s.finishCell(i, span, status, body, err, src, 0, 0)
}

// markRunning flips a cell to running and publishes its progress event.
func (s *Sweep) markRunning(i int) {
	s.mu.Lock()
	if s.cells[i].Status != jobs.StatusQueued {
		s.mu.Unlock()
		return
	}
	s.cells[i].Status = jobs.StatusRunning
	ev := s.cellEventLocked(i)
	s.mu.Unlock()
	s.bus.Publish("cell", ev)
}

// finishCell records one primary cell's terminal state and source, and
// resolves the duplicates coalesced onto it: spans, events, counters and
// each cell's Done. qw and rt decompose a led flight's latency.
func (s *Sweep) finishCell(i int, span obs.SpanHandle, status jobs.Status, body json.RawMessage, err error, src Source, qw, rt time.Duration) {
	r := s.r
	if span.Live() {
		span.End(obs.SA("cell", i), obs.SA("status", string(status)), obs.SA("disposition", string(src)))
	} else {
		span.End()
	}
	s.mu.Lock()
	var evBuf [1]map[string]any // one cell, unless it has duplicates
	var doneBuf [1]Done
	events, dones := evBuf[:0], doneBuf[:0]
	terminate := func(idx int, src Source, qw, rt time.Duration) {
		c := &s.cells[idx]
		c.Status, c.Source = status, src
		c.Result = body
		if err != nil {
			c.Err = err.Error()
		}
		switch status {
		case jobs.StatusDone:
			s.counts.Done++
		case jobs.StatusCanceled:
			s.counts.Canceled++
			r.canceled.Add(1)
		default:
			s.counts.Failed++
			r.failed.Add(1)
		}
		events = append(events, s.cellEventLocked(idx))
		dones = append(dones, Done{ID: s.id + "/c" + strconv.Itoa(idx), Origin: Origin, Label: c.Label,
			Config: c.Config, Status: status, Cache: src.cache(), Err: c.Err, QueueWait: qw, RunTime: rt})
	}
	terminate(i, src, qw, rt)
	switch {
	case src == FromCache:
		s.counts.Cached++
		r.cached.Add(1)
	case src == FromCoalesced:
		s.counts.Coalesced++
		r.coalesced.Add(1)
	case status == jobs.StatusDone:
		r.run.Add(1)
	}
	for _, di := range s.dups[i] {
		s.counts.Coalesced++
		r.coalesced.Add(1)
		terminate(di, FromCoalesced, 0, 0)
		if s.sctx.Valid() {
			now := time.Now()
			s.sctx.Complete("cell", s.cells[di].Label, now, now,
				obs.SA("cell", di), obs.SA("disposition", "coalesced"), obs.SA("dup_of", i))
		}
	}
	s.mu.Unlock()
	for _, ev := range events {
		s.bus.Publish("cell", ev)
	}
	for _, d := range dones {
		if r.OnDone != nil {
			r.OnDone(d)
		}
	}
}

// cellEventLocked assembles one cell progress event; s.mu must be held.
func (s *Sweep) cellEventLocked(i int) map[string]any {
	c := &s.cells[i]
	ev := map[string]any{
		"sweep":  s.id,
		"cell":   i,
		"label":  c.Label,
		"status": string(c.Status),
		"done":   s.counts.Done,
		"cells":  s.counts.Cells,
	}
	if c.Source == FromCache {
		ev["cached"] = true
	}
	if c.DupOf >= 0 {
		ev["coalesced_onto"] = c.DupOf
	}
	if c.Err != "" {
		ev["error"] = c.Err
	}
	return ev
}

// finish seals the sweep: terminal status, the "sweep" event, bus
// closure and the done signal. The sweep span ends first — a client
// that polls for the terminal status and immediately fetches the trace
// must find the span already recorded.
func (s *Sweep) finish() {
	s.mu.Lock()
	c := s.counts // final: every cell is terminal
	status := terminalStatus(s.canceled, c)
	s.mu.Unlock()
	if s.span.Live() {
		s.span.End(obs.SA("status", string(status)), obs.SA("cells", c.Cells),
			obs.SA("cached", c.Cached), obs.SA("coalesced", c.Coalesced),
			obs.SA("failed", c.Failed), obs.SA("canceled", c.Canceled))
	} else {
		s.span.End()
	}
	s.mu.Lock()
	s.finishedAt = time.Now()
	s.mu.Unlock()
	ev := map[string]any{"sweep": s.id, "status": string(status), "cells": c.Cells, "done": c.Done,
		"failed": c.Failed, "canceled": c.Canceled, "cached": c.Cached, "coalesced": c.Coalesced}
	s.r.finished.Add(1)
	s.bus.Publish("sweep", ev)
	s.bus.Close()
	close(s.done)
}

// statusLocked derives the sweep-level status; s.mu must be held.
func (s *Sweep) statusLocked() jobs.Status {
	if !s.finishedAt.IsZero() {
		return terminalStatus(s.canceled, s.counts)
	}
	return jobs.StatusRunning
}

// terminalStatus folds cell outcomes into the sweep-level terminal
// status.
func terminalStatus(canceled bool, c Counts) jobs.Status {
	switch {
	case canceled || c.Canceled > 0:
		return jobs.StatusCanceled
	case c.Failed > 0:
		return jobs.StatusFailed
	default:
		return jobs.StatusDone
	}
}

// ID returns the sweep's identifier.
func (s *Sweep) ID() string { return s.id }

// Bus returns the sweep's event bus (nil when none was attached).
func (s *Sweep) Bus() *obs.Bus { return s.bus }

// Snapshot returns a copy of the sweep's summary state.
func (s *Sweep) Snapshot() Snapshot {
	s.mu.Lock()
	defer s.mu.Unlock()
	return Snapshot{
		ID:         s.id,
		Name:       s.spec.Name,
		Axes:       s.spec.AxisNames(),
		Status:     s.statusLocked(),
		Counts:     s.counts,
		CreatedAt:  s.createdAt,
		FinishedAt: s.finishedAt,
	}
}

// Cells returns copies of the cell records, optionally filtered to one
// status ("" returns all), in sweep order.
func (s *Sweep) Cells(status jobs.Status) []CellState {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]CellState, 0, len(s.cells))
	for _, c := range s.cells {
		if status != "" && c.Status != status {
			continue
		}
		out = append(out, c)
	}
	return out
}

// Cancel stops feeding new cells and takes the claimed ones off their
// flights (Runner.Leave). Safe to call repeatedly and after completion.
func (s *Sweep) Cancel() {
	s.mu.Lock()
	if s.finishedAt.IsZero() {
		s.canceled = true
	}
	s.mu.Unlock()
	s.cancel() // stops the feeder, and its Claims from leading
	s.r.Leave(s.id)
}

// Wait blocks until every cell is terminal or ctx expires.
func (s *Sweep) Wait(ctx context.Context) error {
	select {
	case <-s.done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Done returns a channel closed once the sweep is terminal.
func (s *Sweep) Done() <-chan struct{} { return s.done }

// MergedTable renders the merged paper-style output of every completed
// cell, in sweep order: one row per cell with its axis coordinates and
// headline metrics, a provenance column, and a note per failed or
// canceled cell. Callers take Table.Render() or Table.CSV() from it.
func (s *Sweep) MergedTable() (*report.Table, error) {
	s.mu.Lock()
	title := s.spec.Name
	if title == "" {
		title = s.id
	}
	rows := make([]report.SweepRow, 0, len(s.cells))
	var notes []string
	for _, c := range s.cells {
		switch {
		case c.Status == jobs.StatusDone && len(c.Result) > 0:
			var sum report.AggregateSummary
			if err := json.Unmarshal(c.Result, &sum); err != nil {
				s.mu.Unlock()
				return nil, fmt.Errorf("sweep: decoding cell %d result: %w", c.Index, err)
			}
			rows = append(rows, report.SweepRow{Coords: c.Coords, Source: string(c.Source), Summary: sum})
		case c.Status.Terminal():
			note := fmt.Sprintf("cell %d (%s) %s", c.Index, c.Label, c.Status)
			if c.Err != "" {
				note += ": " + c.Err
			}
			notes = append(notes, note)
		}
	}
	s.mu.Unlock()
	t := report.NewSweepTable("sweep "+title, s.spec.AxisNames(), rows)
	for _, n := range notes {
		t.AddNote("%s", n)
	}
	return t, nil
}
