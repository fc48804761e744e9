// Command rfidd serves the RFID simulator as a long-lived experiment
// service: clients POST configurations, a bounded worker pool runs them,
// and identical configurations are answered from a content-addressed
// result cache.
//
// Usage:
//
//	rfidd -addr :8080 -workers 8 -queue 128 -cache 1024
//
//	curl -d '{"config":{"Tags":500,"Rounds":100,"Algorithm":"fsa","FrameSize":300,"Detector":"qcd"}}' \
//	     http://localhost:8080/v1/experiments
//	curl http://localhost:8080/v1/experiments/exp-1
//	curl http://localhost:8080/v1/experiments/exp-1/trace
//	curl -N http://localhost:8080/v1/experiments/exp-1/events   # live SSE telemetry
//	curl http://localhost:8080/v1/audit                         # with -audit
//	curl -d '{"spec":{"base":{...},"axes":[...]}}' http://localhost:8080/v1/sweeps
//	curl http://localhost:8080/v1/sweeps/swp-1/report?format=csv
//	curl -N http://localhost:8080/v1/sweeps/swp-1/events        # per-cell progress SSE
//	curl http://localhost:8080/metrics
//	curl http://localhost:8080/debug/statusz                    # human status snapshot
//	curl http://localhost:8080/v1/traces                        # service trace index
//	curl http://localhost:8080/v1/traces/<id>                   # Chrome trace-event JSON
//	curl http://localhost:8080/v1/metrics/history               # retained series index
//	curl http://localhost:8080/v1/alerts                        # SLO alert status
//
// Observability: requests and worker lifecycle are logged through
// log/slog (-log-format json for machine parsing, -log-level to
// filter); every mutating request gets a trace, whose spans — request,
// queue wait, run, experiment, rounds, frames — are kept in one bounded
// trace store (-span-traces traces of at most -span-capacity spans
// each; -span-traces 0 disables tracing). /v1/traces/{id} and
// /v1/experiments/{id}/trace export one trace, /debug/trace every
// retained one. Event streams and the metrics history are always on:
// every computed experiment, sweep and scenario streams its events
// (-event-history sizes an experiment's replay ring), and the registry
// is sampled every -history-interval into a ring reaching back
// -history-retention, which backs /v1/metrics/history, the SLO alerts
// (/v1/alerts, -slo-config) and statusz's trends. -pprof mounts the
// standard net/http/pprof handlers under /debug/pprof/.
//
// On SIGINT/SIGTERM the daemon stops accepting work, drains queued and
// in-flight experiments (up to -drain-timeout), then exits.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/obs/slo"
	"repro/internal/server"
)

// Connection timeouts. The header bound stops slow-header clients from
// pinning connections; the idle bound recycles keep-alive connections.
// There is no read or write timeout: request bodies are small and
// bounded by the server, and SSE responses stream for as long as a run.
const (
	readHeaderTimeout = 10 * time.Second
	idleTimeout       = 2 * time.Minute
)

func main() {
	var (
		addr         = flag.String("addr", ":8080", "listen address")
		workers      = flag.Int("workers", 0, "worker pool size (0 = GOMAXPROCS)")
		queue        = flag.Int("queue", 128, "bounded queue depth")
		cacheSize    = flag.Int("cache", 1024, "result cache capacity in entries")
		jobTimeout   = flag.Duration("job-timeout", 0, "run limit per experiment or sweep cell; scenarios are unbounded (0 = none)")
		drainTimeout = flag.Duration("drain-timeout", 30*time.Second, "graceful shutdown drain limit")
		spanTraces   = flag.Int("span-traces", 256, "trace store capacity in traces (0 disables tracing)")
		spanCap      = flag.Int("span-capacity", 4096, "trace store capacity in spans per trace (further spans are dropped and counted)")
		eventHistory = flag.Int("event-history", 256, "per-experiment SSE replay ring in events")
		eventBuffer  = flag.Int("event-buffer", 256, "events an SSE subscriber may lag before being dropped")
		heartbeat    = flag.Duration("heartbeat", 15*time.Second, "SSE comment-heartbeat interval")
		sweepCells   = flag.Int("sweep-max-cells", 0, "max cells one POST /v1/sweeps may expand to (0 = default)")
		auditFlag    = flag.Bool("audit", false, "shadow every verdict with the ground-truth oracle (GET /v1/audit)")
		auditCap     = flag.Int("audit-exemplars", 64, "audit misclassification exemplar ring capacity")
		histInterval = flag.Duration("history-interval", time.Second, "metrics history sample interval")
		histRetain   = flag.Duration("history-retention", 16*time.Minute, "metrics history retention window")
		sloConfig    = flag.String("slo-config", "", "JSON SLO policy file (empty = built-in defaults)")
		pprof        = flag.Bool("pprof", false, "serve net/http/pprof under /debug/pprof/")
		logFormat    = flag.String("log-format", "text", "log output format: text | json")
		logLevel     = flag.String("log-level", "info", "minimum log level: debug | info | warn | error")
	)
	flag.Parse()

	logger, err := newLogger(os.Stderr, *logFormat, *logLevel)
	if err != nil {
		fmt.Fprintln(os.Stderr, "rfidd:", err)
		os.Exit(2)
	}

	// Options.TraceStoreTraces: 0 means default, negative disables, so
	// a 0 flag value maps to -1.
	st := *spanTraces
	if st == 0 {
		st = -1
	}
	var sloCfg *slo.Config
	if *sloConfig != "" {
		cfg, err := slo.Load(*sloConfig)
		if err != nil {
			fmt.Fprintln(os.Stderr, "rfidd:", err)
			os.Exit(2)
		}
		sloCfg = &cfg
	}
	svc := server.New(server.Options{
		Workers:           *workers,
		QueueDepth:        *queue,
		CacheSize:         *cacheSize,
		JobTimeout:        *jobTimeout,
		TraceStoreTraces:  st,
		TraceStoreSpans:   *spanCap,
		EventHistory:      *eventHistory,
		EventBuffer:       *eventBuffer,
		HeartbeatInterval: *heartbeat,
		SweepMaxCells:     *sweepCells,
		EnableAudit:       *auditFlag,
		AuditExemplars:    *auditCap,
		HistoryInterval:   *histInterval,
		HistoryRetention:  *histRetain,
		SLOConfig:         sloCfg,
		Logger:            logger,
		EnablePprof:       *pprof,
	})
	httpSrv := &http.Server{
		Addr: *addr, Handler: svc.Handler(),
		ReadHeaderTimeout: readHeaderTimeout, IdleTimeout: idleTimeout,
	}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() {
		logger.Info("listening", "addr", *addr, "queue", *queue, "cache", *cacheSize, "pprof", *pprof)
		errc <- httpSrv.ListenAndServe()
	}()

	select {
	case err := <-errc:
		logger.Error("serve failed", "err", err)
		os.Exit(1)
	case <-ctx.Done():
	}

	logger.Info("shutting down", "drain_timeout", *drainTimeout)
	shCtx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := httpSrv.Shutdown(shCtx); err != nil {
		logger.Warn("http shutdown", "err", err)
	}
	if err := svc.Shutdown(shCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		logger.Warn("drain", "err", err)
	} else if err != nil {
		logger.Warn("drain deadline hit; running experiments were canceled")
	}
	logger.Info("bye")
}

// newLogger builds the process logger from the -log-format and
// -log-level flags.
func newLogger(w *os.File, format, level string) (*slog.Logger, error) {
	var lvl slog.Level
	switch level {
	case "debug":
		lvl = slog.LevelDebug
	case "info":
		lvl = slog.LevelInfo
	case "warn":
		lvl = slog.LevelWarn
	case "error":
		lvl = slog.LevelError
	default:
		return nil, fmt.Errorf("unknown -log-level %q", level)
	}
	opts := &slog.HandlerOptions{Level: lvl}
	switch format {
	case "text":
		return slog.New(slog.NewTextHandler(w, opts)), nil
	case "json":
		return slog.New(slog.NewJSONHandler(w, opts)), nil
	default:
		return nil, fmt.Errorf("unknown -log-format %q", format)
	}
}
