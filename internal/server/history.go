package server

// Metrics history + SLO alerting endpoints:
//
//	GET /v1/metrics/history                 index of retained series
//	GET /v1/metrics/history?series=…        derived points per series
//	    (&window=30s &reduce=raw|rate|delta|avg, series repeatable,
//	     &annotations=1 appends the annotation ring)
//	GET /v1/alerts                          every objective's alert status
//	GET /v1/alerts/events                   alert transitions as SSE
//
// The history store samples the registry on a fixed interval from one
// background goroutine; the SLO engine evaluates after every tick on
// that same goroutine, so alerting can never lag sampling.

import (
	"net/http"
	"time"

	"repro/internal/obs"
	"repro/internal/obs/slo"
	"repro/internal/obs/tsdb"
)

// alertEventHistory bounds the alert bus's replay ring, in events.
const alertEventHistory = 256

// startHistory wires the history store, runtime collector, SLO engine
// and alert bus, then starts the sampler goroutine. Called from New
// after registerMetrics so every registry series exists when the first
// tick runs; a negative HistoryInterval leaves everything nil (the
// disabled path).
func (s *Server) startHistory() {
	if s.opts.HistoryInterval < 0 {
		return
	}
	s.runstats = obs.NewRuntimeCollector()
	s.runstats.Register(s.reg)
	s.hist = tsdb.New(s.reg, tsdb.Options{
		Interval:  s.opts.HistoryInterval,
		Retention: s.opts.HistoryRetention,
	})
	s.hist.Register(s.reg)
	cfg := slo.DefaultConfig()
	if s.opts.SLOConfig != nil {
		cfg = *s.opts.SLOConfig
	}
	s.alertBus = obs.NewBus(alertEventHistory)
	s.alertBus.CountDropsInto(s.evDrops)
	eng, err := slo.New(cfg, s.hist, s.reg, s.alertBus)
	if err != nil {
		// A bad policy must not take the service down with it: run
		// without alerting (history still records) and say so.
		if s.logger != nil {
			s.logger.Error("slo config rejected; alerting disabled", "err", err)
		}
	} else {
		s.slos = eng
	}
	s.samplerStop = make(chan struct{})
	go s.sampleLoop()
}

// sampleLoop is the history heartbeat: one registry sample then one
// SLO evaluation per tick, until Shutdown.
func (s *Server) sampleLoop() {
	t := time.NewTicker(s.opts.HistoryInterval)
	defer t.Stop()
	for {
		select {
		case now := <-t.C:
			s.hist.Sample(now)
			s.slos.Evaluate(now)
		case <-s.samplerStop:
			return
		}
	}
}

// stopHistory halts the sampler goroutine; idempotent.
func (s *Server) stopHistory() {
	if s.samplerStop == nil {
		return
	}
	s.samplerOnce.Do(func() { close(s.samplerStop) })
}

// HistoryIndexResponse is the GET /v1/metrics/history body when no
// series is selected.
type HistoryIndexResponse struct {
	IntervalMS  int64             `json:"interval_ms"`
	RetentionMS int64             `json:"retention_ms"`
	Series      []tsdb.SeriesInfo `json:"series"`
}

// HistoryResponse is the GET /v1/metrics/history body for one or more
// selected series.
type HistoryResponse struct {
	IntervalMS  int64             `json:"interval_ms"`
	Results     []tsdb.Result     `json:"results"`
	Annotations []tsdb.Annotation `json:"annotations,omitempty"`
}

// AlertsResponse is the GET /v1/alerts body.
type AlertsResponse struct {
	Firing int         `json:"firing"`
	Alerts []slo.Alert `json:"alerts"`
}

func (s *Server) handleMetricsHistory(w http.ResponseWriter, r *http.Request) {
	if s.hist == nil {
		writeJSON(w, http.StatusNotFound,
			errorResponse{Error: "metrics history disabled (start the server with a non-negative history interval)"})
		return
	}
	q := r.URL.Query()
	selectors := q["series"]
	if len(selectors) == 0 {
		writeJSON(w, http.StatusOK, HistoryIndexResponse{
			IntervalMS:  s.hist.Interval().Milliseconds(),
			RetentionMS: s.hist.Retention().Milliseconds(),
			Series:      s.hist.Series(),
		})
		return
	}
	var window time.Duration
	if raw := q.Get("window"); raw != "" {
		var err error
		if window, err = time.ParseDuration(raw); err != nil {
			writeJSON(w, http.StatusBadRequest, errorResponse{Error: "bad window: " + err.Error()})
			return
		}
	}
	reduce := q.Get("reduce")
	resp := HistoryResponse{IntervalMS: s.hist.Interval().Milliseconds()}
	for _, sel := range selectors {
		res, err := s.hist.Query(sel, window, reduce)
		if err != nil {
			writeJSON(w, http.StatusBadRequest, errorResponse{Error: err.Error()})
			return
		}
		resp.Results = append(resp.Results, res)
	}
	if q.Get("annotations") == "1" {
		since := time.Time{}
		if window > 0 {
			since = time.Now().Add(-window)
		}
		resp.Annotations = s.hist.Annotations(since)
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleAlerts(w http.ResponseWriter, r *http.Request) {
	if s.slos == nil {
		writeJSON(w, http.StatusNotFound,
			errorResponse{Error: "slo alerting disabled (history off or config rejected)"})
		return
	}
	alerts := s.slos.Alerts()
	firing := 0
	for _, a := range alerts {
		if a.State == slo.StateFiring {
			firing++
		}
	}
	writeJSON(w, http.StatusOK, AlertsResponse{Firing: firing, Alerts: alerts})
}

// handleAlertEvents streams alert state transitions as SSE; the bus's
// replay ring makes `?after=0` a complete transition log.
func (s *Server) handleAlertEvents(w http.ResponseWriter, r *http.Request) {
	if s.alertBus == nil {
		writeJSON(w, http.StatusNotFound,
			errorResponse{Error: "slo alerting disabled (history off)"})
		return
	}
	s.streamSSE(w, r, s.alertBus)
}
