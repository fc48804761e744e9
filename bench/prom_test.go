package main

import (
	"math"
	"os"
	"testing"
)

// The testdata expositions were scraped from an in-process rfidd
// before and after three uncached experiments and one cache hit.
func readExposition(t *testing.T, path string) exposition {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	e, err := parseExposition(string(raw))
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Max(1, math.Abs(b)) }

func TestExpositionDelta(t *testing.T) {
	start := readExposition(t, "testdata/metrics_start.prom")
	end := readExposition(t, "testdata/metrics_end.prom")
	d := delta(start, end)

	for _, c := range []struct {
		name   string
		labels []string
		want   float64
	}{
		{"rfidd_jobs_done_total", nil, 3},
		{"rfidd_cache_hits_total", nil, 1},
		{"rfidd_cache_misses_total", nil, 3},
		{"sim_slots_total", nil, 5520},
		{"sim_slots_total", []string{`type="single"`}, 1500},
		{"rfidd_queue_wait_seconds_sum", []string{`origin="job"`}, 0.0006512340000000001 - 9.7767e-05},
		{"rfidd_queue_wait_seconds_sum", []string{`origin="sweep"`}, 0},
		{"rfidd_worker_busy_seconds_total", nil, 0.006001028 - 0.000903238},
		{"no_such_metric", nil, 0},
	} {
		if got := d.sum(c.name, c.labels...); !near(got, c.want) {
			t.Errorf("delta %s%v = %v, want %v", c.name, c.labels, got, c.want)
		}
	}
	// A histogram's _sum must not be mistaken for the family name.
	if got := d.sum("rfidd_queue_wait_seconds"); got != 0 {
		t.Errorf("bare histogram family matched %v", got)
	}

	mt := map[string]float64{}
	serviceLayers(mt, d, 2, 1)
	for name, want := range map[string]float64{
		"rescache.hit_pct":       25,
		"engine.slots_per_s":     2760,
		"engine.single_slot_pct": 100 * 1500.0 / 5520,
		"sweep.cells_per_s":      0,
	} {
		if !near(mt[name], want) {
			t.Errorf("%s = %v, want %v", name, mt[name], want)
		}
	}
	for _, name := range []string{"jobs.worker_util_pct", "jobs.queue_wait_pct", "detect.classify_pct"} {
		if v := mt[name]; v <= 0 || v >= 100 {
			t.Errorf("%s = %v, want a share in (0, 100)", name, v)
		}
	}
}

func TestParseExpositionRejectsGarbage(t *testing.T) {
	if _, err := parseExposition("rfidd_up one\n"); err == nil {
		t.Fatal("accepted a non-numeric value")
	}
	if _, err := parseExposition("novalue\n"); err == nil {
		t.Fatal("accepted a line without a value")
	}
}
