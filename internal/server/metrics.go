package server

import (
	"net/http"

	"repro/internal/obs"
	"repro/internal/sim"
)

// registerMetrics wires every exposed series onto the server's single
// obs registry: the job-latency histogram, the pool's load series, the
// result cache's effectiveness series, the experiment index gauge, and
// the simulator's own series (rounds, slots, frames, detector verdict
// latency). /metrics is then one registry walk; no hand-written
// exposition remains. The shared counter/gauge/histogram types live in
// repro/internal/obs.
//
// sim.Instrument is process-global: the most recently constructed
// Server receives the simulator series (tests constructing several
// servers observe sim counts only on the newest one).
func (s *Server) registerMetrics() {
	s.lat = s.reg.Histogram("rfidd_job_latency_seconds",
		"Queue wait plus run time per experiment.", obs.DefaultLatencyBuckets)
	// Latency decomposition by origin: where did an experiment's wall
	// clock go — waiting in the queue, looking up the cache, or running.
	s.jobLat = s.originLat(originJob)
	s.sweepLat = s.originLat(originSweep)
	s.windowWait = s.reg.Histogram("rfidd_sweep_window_wait_seconds",
		"Time a sweep cell waited for an in-flight window slot.", obs.DefaultLatencyBuckets)
	s.sweeps.CacheLookup = s.sweepLat.lookup
	s.sweeps.WindowWait = s.windowWait
	s.pool.Register(s.reg, "rfidd")
	s.cache.Register(s.reg, "rfidd_cache")
	// Cache traffic split by requester: single submissions vs sweep
	// cells (coalesced duplicates never reach the cache, so these two
	// origins account for every counted lookup).
	s.cache.RegisterOrigin(s.reg, "rfidd_cache", originJob)
	s.cache.RegisterOrigin(s.reg, "rfidd_cache", originSweep)
	s.sweeps.Register(s.reg, "rfidd_sweep")
	s.reg.GaugeFunc("rfidd_sweeps", "Sweep records currently indexed.", func() float64 {
		return float64(s.sweepRecs.count.Load())
	})
	s.reg.GaugeFunc("rfidd_scenarios", "Scenario records currently indexed.", func() float64 {
		return float64(s.scenRecs.count.Load())
	})
	// Exposition callbacks run under the registry lock and must stay
	// lock-free (atomics only), so each record count is mirrored into an
	// atomic rather than read under s.mu.
	s.reg.GaugeFunc("rfidd_experiments", "Experiment records currently indexed.", func() float64 {
		return float64(s.experiments.count.Load())
	})
	s.evDrops = s.reg.Counter("rfidd_event_subscribers_dropped_total",
		"SSE subscribers dropped for falling behind the event stream.")
	if s.spans != nil {
		s.spans.Register(s.reg)
	}
	sim.Instrument(s.reg)
}

// originLat builds the three decomposition histograms for one origin.
func (s *Server) originLat(origin string) originLat {
	l := obs.L("origin", origin)
	return originLat{
		queueWait: s.reg.Histogram("rfidd_queue_wait_seconds",
			"Time from enqueue to run start, by origin.", obs.DefaultLatencyBuckets, l),
		run: s.reg.Histogram("rfidd_run_seconds",
			"Run time (first attempt start to terminal), by origin.", obs.DefaultLatencyBuckets, l),
		lookup: s.reg.Histogram("rfidd_cache_lookup_seconds",
			"Result-cache lookup time, by origin.", obs.DefaultLatencyBuckets, l),
	}
}

// handleMetrics renders the registry in Prometheus text format.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	s.reg.Handler().ServeHTTP(w, r)
}
