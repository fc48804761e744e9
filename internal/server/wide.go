package server

// Wide events: one canonical, high-dimensionality record per finished
// unit of work (single experiment or sweep cell), from the sweep
// runner's one completion hook. Each event carries
// the who (origin, id, cell label), the what (algorithm, detector,
// tags, frame), the how (cache disposition) and the span timings
// (queue wait, run time) in a single slog line, plus a bounded ring of
// recent events rendered on /debug/statusz. The matching aggregate
// view is the per-origin histogram set registered in metrics.go.

import (
	"slices"
	"sync"
	"time"

	"repro/internal/jobs"
	"repro/internal/obs"
	"repro/internal/sweep"
)

// originLat bundles the latency-decomposition histograms for one
// request origin (single submissions vs sweep cells).
type originLat struct {
	queueWait *obs.Histogram
	run       *obs.Histogram
	lookup    *obs.Histogram
}

// wideEvent is one finished experiment or cell, flattened for logs and
// statusz: the runner's terminal outcome, stamped with its time.
type wideEvent struct {
	Time time.Time
	sweep.Done
}

// wideLog is a fixed-size ring of the most recent wide events.
type wideLog struct {
	mu    sync.Mutex
	ring  obs.Ring[wideEvent]
	total uint64
}

// wideEventCap bounds the ring of recent wide events rendered on
// /debug/statusz.
const wideEventCap = 128

func newWideLog() *wideLog {
	return &wideLog{ring: obs.NewRing[wideEvent](wideEventCap)}
}

func (l *wideLog) add(ev wideEvent) {
	l.mu.Lock()
	l.ring.Push(ev)
	l.total++
	l.mu.Unlock()
}

// recent returns up to max events, newest first.
func (l *wideLog) recent(max int) []wideEvent {
	l.mu.Lock()
	evs := l.ring.Items()
	l.mu.Unlock()
	slices.Reverse(evs)
	return evs[:min(max, len(evs))]
}

// count returns how many wide events have ever been emitted.
func (l *wideLog) count() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.total
}

// onDone receives every computed experiment's and sweep cell's terminal
// outcome: work that ran feeds its origin's latency decomposition, and
// every outcome becomes a wide event (statusz ring and one slog line).
func (s *Server) onDone(d sweep.Done) {
	if d.Cache == "miss" && (d.QueueWait > 0 || d.RunTime > 0) {
		lat := s.originLats[d.Origin]
		lat.queueWait.Observe(d.QueueWait.Seconds())
		lat.run.Observe(d.RunTime.Seconds())
	}
	if d.Origin == s.experiments.origin && d.Status == jobs.StatusFailed {
		s.hist.Annotate("job", d.ID+" failed")
	}
	ev := wideEvent{Time: time.Now(), Done: d}
	s.wide.add(ev)
	if s.logger == nil {
		return
	}
	attrs := []any{
		"origin", ev.Origin, "id", ev.ID, "status", ev.Status,
		"algorithm", ev.Config.Algorithm, "detector", ev.Config.Detector,
		"tags", ev.Config.Tags, "frame", ev.Config.FrameSize, "cache", ev.Cache,
		"queue_wait", ev.QueueWait, "run_time", ev.RunTime,
	}
	if ev.Label != "" {
		attrs = append(attrs, "cell", ev.Label)
	}
	if ev.Err != "" {
		attrs = append(attrs, "err", ev.Err)
	}
	s.logger.Info("wide", attrs...)
}
