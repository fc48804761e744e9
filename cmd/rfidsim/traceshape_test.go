package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"testing"
	"time"

	"repro/internal/server"
	"repro/internal/sim"
	"repro/internal/sweep"
)

// TestTraceExportShape checks that every trace export loads in
// chrome://tracing and Perfetto: rfidsim -trace, and rfidd's
// /v1/experiments/{id}/trace, /v1/traces/{id} (for a 2-worker traced
// sweep) and /debug/trace. `make trace-demo` runs it.
func TestTraceExportShape(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.json")
	args := []string{"-tags", "200", "-rounds", "10", "-frame", "128", "-workers", "2", "-trace", path}
	if code := run(args, io.Discard, io.Discard); code != 0 {
		t.Fatalf("rfidsim exit code = %d", code)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	checkTraceShape(t, "rfidsim -trace", raw, 10)

	svc := server.New(server.Options{Workers: 2, QueueDepth: 16})
	ts := httptest.NewServer(svc.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = svc.Shutdown(ctx)
	})
	c := server.NewClient(ts.URL)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	base := sim.Config{
		Tags: 100, Rounds: 6, Algorithm: sim.AlgFSA, FrameSize: 64,
		Detector: sim.DetQCD, Strength: 8, Seed: 3, Workers: 2,
	}
	exp, err := c.Submit(ctx, base)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Wait(ctx, exp.ID, 0); err != nil {
		t.Fatal(err)
	}
	checkTraceShape(t, "/v1/experiments/{id}/trace", fetch(t, ts.URL+"/v1/experiments/"+exp.ID+"/trace"), 10)

	spec := sweep.Spec{
		Name: "shape",
		Base: base,
		Axes: []sweep.Axis{
			{Field: sweep.FieldTags, Ints: []int{60, 120}},
			{Field: sweep.FieldStrength, Ints: []int{4, 16}},
		},
	}
	sw, traceID, err := c.SubmitSweepTraced(ctx, spec, "")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.WaitSweep(ctx, sw.ID, 0); err != nil {
		t.Fatal(err)
	}
	checkTraceShape(t, "/v1/traces/{id}", fetch(t, ts.URL+"/v1/traces/"+traceID), 40)
	checkTraceShape(t, "/debug/trace", fetch(t, ts.URL+"/debug/trace"), 50)
}

// fetch GETs url and returns the 200 body.
func fetch(t *testing.T, url string) []byte {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s = %d: %s", url, resp.StatusCode, body)
	}
	return body
}

// checkTraceShape validates a Chrome trace-event document: a JSON
// object with a traceEvents array of at least minEvents events, each
// with name, ph, pid, tid and ts >= 0, every complete ("X") event with
// dur >= 0, and no two complete events on one (pid, tid) track
// overlapping without nesting — the condition under which Perfetto
// rejects a track as improperly nested. Times are compared in whole
// nanoseconds, the resolution of the exporter's clock.
func checkTraceShape(t *testing.T, what string, raw []byte, minEvents int) {
	t.Helper()
	var doc struct {
		TraceEvents []struct {
			Name  string   `json:"name"`
			Phase string   `json:"ph"`
			TS    *float64 `json:"ts"`
			Dur   *float64 `json:"dur"`
			PID   *int     `json:"pid"`
			TID   *int     `json:"tid"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("%s: not a Chrome trace object: %v", what, err)
	}
	if len(doc.TraceEvents) < minEvents {
		t.Fatalf("%s: %d trace events, want at least %d", what, len(doc.TraceEvents), minEvents)
	}
	type span struct {
		name       string
		start, end int64
	}
	tracks := map[[2]int][]span{}
	for i, ev := range doc.TraceEvents {
		where := fmt.Sprintf("%s: event %d (%q)", what, i, ev.Name)
		switch {
		case ev.Name == "" || ev.Phase == "":
			t.Fatalf("%s: empty name or ph", where)
		case ev.PID == nil || ev.TID == nil:
			t.Fatalf("%s: missing pid/tid", where)
		case ev.TS == nil || *ev.TS < 0:
			t.Fatalf("%s: missing or negative ts", where)
		}
		if ev.Phase != "X" {
			continue
		}
		if ev.Dur == nil || *ev.Dur < 0 {
			t.Fatalf("%s: complete event with missing or negative dur", where)
		}
		start := int64(math.Round(*ev.TS * 1e3))
		k := [2]int{*ev.PID, *ev.TID}
		tracks[k] = append(tracks[k], span{ev.Name, start, start + int64(math.Round(*ev.Dur*1e3))})
	}
	for k, spans := range tracks {
		sort.Slice(spans, func(i, j int) bool {
			if spans[i].start != spans[j].start {
				return spans[i].start < spans[j].start
			}
			return spans[i].end > spans[j].end
		})
		var open []span // the chain of enclosing spans
		for _, sp := range spans {
			for len(open) > 0 && open[len(open)-1].end <= sp.start {
				open = open[:len(open)-1]
			}
			if n := len(open); n > 0 && sp.end > open[n-1].end {
				t.Errorf("%s: track %v: %s [%d, %d] partially overlaps %s [%d, %d] (ns)",
					what, k, sp.name, sp.start, sp.end, open[n-1].name, open[n-1].start, open[n-1].end)
				break
			}
			open = append(open, sp)
		}
	}
}
