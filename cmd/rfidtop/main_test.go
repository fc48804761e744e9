package main

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/obs/tsdb"
	"repro/internal/server"
)

// TestOnceFrameReadsRatesFromHistory renders one plain frame against an
// in-process rfidd whose /v1/metrics/history answers fixed rates: the
// pool section must show exactly those rates, and a failing history
// poll must fail the frame.
func TestOnceFrameReadsRatesFromHistory(t *testing.T) {
	svc := server.New(server.Options{Workers: 2, QueueDepth: 4})
	t.Cleanup(func() { _ = svc.Shutdown(context.Background()) })
	var historyDown atomic.Bool
	mux := http.NewServeMux()
	mux.Handle("/", svc.Handler())
	mux.HandleFunc("GET /v1/metrics/history", func(w http.ResponseWriter, r *http.Request) {
		if historyDown.Load() {
			http.Error(w, "down", http.StatusServiceUnavailable)
			return
		}
		// 12.5 jobs/s, and 1.5 busy-seconds/s over 2 workers: 75% busy.
		resp := server.HistoryResponse{Results: []tsdb.Result{
			{Name: "rfidd_jobs_done_total", Points: []tsdb.Point{{V: 10}, {V: 15}}},
			{Name: "rfidd_worker_busy_seconds_total", Points: []tsdb.Point{{V: 1.5}}},
		}}
		_ = json.NewEncoder(w).Encode(resp)
	})
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)

	var out bytes.Buffer
	d := &dash{
		client:   server.NewClient(ts.URL),
		addr:     ts.URL,
		interval: time.Second,
		plain:    true,
		out:      &out,
		tail:     newTail(1),
	}
	if err := d.run(context.Background(), 1); err != nil {
		t.Fatal(err)
	}
	frame := out.String()
	for _, want := range []string{"workers 2 ", "busy%(recent) 75.0%", "done/s 12.5"} {
		if !strings.Contains(frame, want) {
			t.Errorf("frame lacks %q:\n%s", want, frame)
		}
	}
	if strings.Contains(frame, "\x1b") {
		t.Errorf("plain frame carries escape codes:\n%q", frame)
	}

	historyDown.Store(true)
	if err := d.run(context.Background(), 1); err == nil || !strings.Contains(err.Error(), "503") {
		t.Fatalf("frame with history down: err = %v, want the 503", err)
	}
}
