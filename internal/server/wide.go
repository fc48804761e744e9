package server

// Wide events: one canonical, high-dimensionality record per finished
// unit of work (single experiment or sweep cell). Each event carries
// the who (origin, id, cell label), the what (algorithm, detector,
// tags, frame), the how (cache disposition) and the span timings
// (queue wait, run time) in a single slog line, plus a bounded ring of
// recent events rendered on /debug/statusz. The matching aggregate
// view is the per-origin histogram set registered in metrics.go.

import (
	"strconv"
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

// wideEvent is one finished job or cell, flattened for logs and
// statusz.
type wideEvent struct {
	Time      time.Time
	Origin    string // originJob or originSweep
	ID        string // experiment id, or sweep-cell job id
	Label     string // sweep cell label; "" for single experiments
	Status    string
	Algorithm string
	Detector  string
	Tags      int
	FrameSize int
	Cache     string // "hit", "miss" or "coalesced"
	QueueWait time.Duration
	RunTime   time.Duration
	Attempts  int
	Err       string
}

// wideLog is a fixed-size ring of the most recent wide events.
type wideLog struct {
	mu    sync.Mutex
	buf   []wideEvent
	next  int // overwrite position once the ring is full
	total uint64
}

// wideEventCap bounds the ring of recent wide events rendered on
// /debug/statusz.
const wideEventCap = 128

func newWideLog() *wideLog {
	return &wideLog{buf: make([]wideEvent, 0, wideEventCap)}
}

func (l *wideLog) add(ev wideEvent) {
	l.mu.Lock()
	if len(l.buf) < cap(l.buf) {
		l.buf = append(l.buf, ev)
	} else {
		l.buf[l.next] = ev
		l.next = (l.next + 1) % len(l.buf)
	}
	l.total++
	l.mu.Unlock()
}

// recent returns up to max events, newest first.
func (l *wideLog) recent(max int) []wideEvent {
	l.mu.Lock()
	defer l.mu.Unlock()
	n := len(l.buf)
	if max > n {
		max = n
	}
	out := make([]wideEvent, 0, max)
	// Newest entry is just before the overwrite cursor (or the slice end
	// while the ring is still filling).
	for i := 0; i < max; i++ {
		idx := (l.next - 1 - i + 2*n) % n
		out = append(out, l.buf[idx])
	}
	return out
}

// count returns how many wide events have ever been emitted.
func (l *wideLog) count() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.total
}

// emitWide records one wide event: ring for statusz, one slog line for
// everything downstream.
func (s *Server) emitWide(ev wideEvent) {
	ev.Time = time.Now()
	s.wide.add(ev)
	if s.logger == nil {
		return
	}
	attrs := []any{
		"origin", ev.Origin, "id", ev.ID, "status", ev.Status,
		"algorithm", ev.Algorithm, "detector", ev.Detector,
		"tags", ev.Tags, "frame", ev.FrameSize, "cache", ev.Cache,
		"queue_wait", ev.QueueWait, "run_time", ev.RunTime,
	}
	if ev.Label != "" {
		attrs = append(attrs, "cell", ev.Label)
	}
	if ev.Attempts > 0 {
		attrs = append(attrs, "attempts", ev.Attempts)
	}
	if ev.Err != "" {
		attrs = append(attrs, "err", ev.Err)
	}
	s.logger.Info("wide", attrs...)
}

// onCellDone receives every sweep cell's terminal state from the sweep
// runner: the decomposition histograms see cells that actually ran,
// and every cell (run, cached, coalesced, canceled) gets a wide event.
func (s *Server) onCellDone(d sweep.CellDone) {
	st := d.State
	cache := "miss"
	switch {
	case st.Cached:
		cache = "hit"
	case st.DupOf >= 0:
		cache = "coalesced"
	}
	if cache == "miss" && (d.QueueWait > 0 || d.RunTime > 0) {
		s.sweepLat.queueWait.Observe(d.QueueWait.Seconds())
		s.sweepLat.run.Observe(d.RunTime.Seconds())
	}
	s.emitWide(wideEvent{
		Origin:    originSweep,
		ID:        d.SweepID + "/c" + strconv.Itoa(st.Index),
		Label:     st.Label,
		Status:    string(st.Status),
		Algorithm: st.Config.Algorithm,
		Detector:  st.Config.Detector,
		Tags:      st.Config.Tags,
		FrameSize: st.Config.FrameSize,
		Cache:     cache,
		QueueWait: d.QueueWait,
		RunTime:   d.RunTime,
		Err:       st.Err,
	})
}

// wideOfJob flattens a finished single experiment into a wide event.
func wideOfJob(exp *experiment, snap jobs.Snapshot, qw, rt time.Duration) wideEvent {
	ev := wideEvent{
		Origin:    originJob,
		ID:        snap.ID,
		Status:    string(snap.Status),
		Algorithm: exp.cfg.Algorithm,
		Detector:  exp.cfg.Detector,
		Tags:      exp.cfg.Tags,
		FrameSize: exp.cfg.FrameSize,
		Cache:     "miss", // cache-served submissions never reach the pool
		QueueWait: qw,
		RunTime:   rt,
		Attempts:  snap.Attempts,
	}
	if snap.Err != nil {
		ev.Err = snap.Err.Error()
	}
	return ev
}
