package server

import (
	"net/http"
	"time"

	"repro/internal/obs"
	"repro/internal/sim"
)

// registerMetrics wires every exposed series onto the server's single
// obs registry: the job-latency histogram, the pool's load series, the
// result cache's effectiveness series, the experiment index gauge, and
// the simulator's own series (rounds, slots, frames, identified tags),
// which the runner attaches to this server's runs only. /metrics is
// then one registry walk; no hand-written exposition remains. The
// shared counter/gauge/histogram types live in repro/internal/obs.
func (s *Server) registerMetrics() {
	s.lat = s.reg.Histogram("rfidd_job_latency_seconds",
		"Queue wait plus run time per experiment.", obs.DefaultLatencyBuckets)
	// Latency decomposition by origin: where did an experiment's wall
	// clock go — waiting in the queue, looking up the cache, or running.
	jobOrigin, sweepOrigin := s.experiments.origin, s.sweeps.origin
	s.originLats = map[string]originLat{jobOrigin: s.originLat(jobOrigin), sweepOrigin: s.originLat(sweepOrigin)}
	s.runner.WindowWait = s.reg.Histogram("rfidd_sweep_window_wait_seconds",
		"Time a sweep cell waited for an in-flight window slot.", obs.DefaultLatencyBuckets)
	s.runner.CacheLookup = func(origin string, d time.Duration) { s.originLats[origin].lookup.Observe(d.Seconds()) }
	s.pool.Register(s.reg, "rfidd")
	s.cache.Register(s.reg, "rfidd_cache")
	// Cache traffic split by requester: single submissions vs sweep
	// cells (coalesced duplicates never reach the cache, so these two
	// origins account for every counted lookup).
	s.cache.RegisterOrigin(s.reg, "rfidd_cache", jobOrigin)
	s.cache.RegisterOrigin(s.reg, "rfidd_cache", sweepOrigin)
	s.runner.Register(s.reg, "rfidd_sweep")
	s.reg.GaugeFunc("rfidd_sweeps", "Sweep records currently indexed.", func() float64 {
		return float64(s.sweeps.count.Load())
	})
	s.reg.GaugeFunc("rfidd_scenarios", "Scenario records currently indexed.", func() float64 {
		return float64(s.scenarios.count.Load())
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
	s.runner.Observers.Metrics = sim.NewMetrics(s.reg)
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
