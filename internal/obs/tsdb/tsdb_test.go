package tsdb

import (
	"math"
	"testing"
	"time"

	"repro/internal/obs"
)

// tick drives n Sample calls at the store's interval starting from t0,
// returning the time of the last tick.
func tick(s *Store, t0 time.Time, n int) time.Time {
	t := t0
	for i := 0; i < n; i++ {
		s.Sample(t)
		t = t.Add(s.Interval())
	}
	return t.Add(-s.Interval())
}

func TestQueryRawGauge(t *testing.T) {
	reg := obs.NewRegistry()
	g := reg.Gauge("queue_depth", "Jobs queued.")
	s := New(reg, Options{Interval: time.Second, Retention: 10 * time.Second})
	t0 := time.Unix(1000, 0)
	for i := 0; i < 5; i++ {
		g.Set(float64(i))
		s.Sample(t0.Add(time.Duration(i) * time.Second))
	}
	res, err := s.Query("queue_depth", 0, "")
	if err != nil {
		t.Fatal(err)
	}
	if res.Reduce != ReduceRaw || res.Kind != KindGauge {
		t.Fatalf("default reduce/kind = %s/%s, want raw/gauge", res.Reduce, res.Kind)
	}
	if len(res.Points) != 5 {
		t.Fatalf("got %d points, want 5", len(res.Points))
	}
	for i, p := range res.Points {
		if p.V != float64(i) {
			t.Fatalf("point %d = %g, want %d", i, p.V, i)
		}
	}
}

func TestQueryRateCounter(t *testing.T) {
	reg := obs.NewRegistry()
	c := reg.Counter("jobs_done_total", "Jobs done.")
	s := New(reg, Options{Interval: time.Second, Retention: 10 * time.Second})
	t0 := time.Unix(1000, 0)
	for i := 0; i < 4; i++ {
		s.Sample(t0.Add(time.Duration(i) * time.Second))
		c.Add(3) // +3 per second after each tick
	}
	res, err := s.Query("jobs_done_total", 0, "")
	if err != nil {
		t.Fatal(err)
	}
	if res.Reduce != ReduceRate {
		t.Fatalf("default reduce for counter = %s, want rate", res.Reduce)
	}
	if len(res.Points) != 3 {
		t.Fatalf("got %d rate points, want 3", len(res.Points))
	}
	for i, p := range res.Points {
		if p.V != 3 {
			t.Fatalf("rate point %d = %g, want 3", i, p.V)
		}
	}
	// delta over the full window: 3 steps of +3.
	d, ok := s.Delta("jobs_done_total", "", "", 0)
	if !ok || d != 9 {
		t.Fatalf("Delta = %g/%v, want 9/true", d, ok)
	}
}

func TestCounterResetHandling(t *testing.T) {
	reg := obs.NewRegistry()
	var v uint64
	reg.CounterFunc("restarts_total", "Test counter.", func() uint64 { return v })
	s := New(reg, Options{Interval: time.Second, Retention: 20 * time.Second})
	t0 := time.Unix(1000, 0)
	// 0, 10, 20, then a process restart drops it to 4, then 6.
	for i, val := range []uint64{0, 10, 20, 4, 6} {
		v = val
		s.Sample(t0.Add(time.Duration(i) * time.Second))
	}
	res, err := s.Query("restarts_total", 0, ReduceDelta)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{10, 10, 4, 2} // reset step counts the post-reset value
	if len(res.Points) != len(want) {
		t.Fatalf("got %d delta points, want %d", len(res.Points), len(want))
	}
	for i, p := range res.Points {
		if p.V != want[i] {
			t.Fatalf("delta point %d = %g, want %g", i, p.V, want[i])
		}
	}
	if d, ok := s.Delta("restarts_total", "", "", 0); !ok || d != 26 {
		t.Fatalf("Delta across reset = %g/%v, want 26/true", d, ok)
	}
}

func TestRingWraparound(t *testing.T) {
	reg := obs.NewRegistry()
	g := reg.Gauge("wrap_gauge", "Test gauge.")
	s := New(reg, Options{Interval: time.Second, Retention: 4 * time.Second}) // 4 slots
	t0 := time.Unix(1000, 0)
	for i := 0; i < 10; i++ {
		g.Set(float64(i))
		s.Sample(t0.Add(time.Duration(i) * time.Second))
	}
	res, err := s.Query("wrap_gauge", 0, ReduceRaw)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 4 {
		t.Fatalf("after wraparound got %d points, want 4 (ring capacity)", len(res.Points))
	}
	for i, p := range res.Points {
		if want := float64(6 + i); p.V != want {
			t.Fatalf("post-wrap point %d = %g, want %g (oldest retained)", i, p.V, want)
		}
		if wantT := t0.Add(time.Duration(6+i) * time.Second).UnixMilli(); p.TMS != wantT {
			t.Fatalf("post-wrap point %d time = %d, want %d", i, p.TMS, wantT)
		}
	}
}

func TestWindowTrimming(t *testing.T) {
	reg := obs.NewRegistry()
	g := reg.Gauge("win_gauge", "Test gauge.")
	s := New(reg, Options{Interval: time.Second, Retention: 20 * time.Second})
	t0 := time.Unix(1000, 0)
	for i := 0; i < 10; i++ {
		g.Set(float64(i))
		s.Sample(t0.Add(time.Duration(i) * time.Second))
	}
	res, err := s.Query("win_gauge", 3*time.Second, ReduceRaw)
	if err != nil {
		t.Fatal(err)
	}
	// window reaches back 3s from the newest tick (t=9): ticks 6..9.
	if len(res.Points) != 4 {
		t.Fatalf("3s window returned %d points, want 4", len(res.Points))
	}
	if res.Points[0].V != 6 || res.Points[3].V != 9 {
		t.Fatalf("3s window = [%g..%g], want [6..9]", res.Points[0].V, res.Points[3].V)
	}
}

func TestHistogramAvgAndSubSeries(t *testing.T) {
	reg := obs.NewRegistry()
	h := reg.Histogram("run_seconds", "Run latency.", obs.DefaultLatencyBuckets)
	s := New(reg, Options{Interval: time.Second, Retention: 20 * time.Second})
	t0 := time.Unix(1000, 0)
	s.Sample(t0)
	h.Observe(2)
	h.Observe(4)
	s.Sample(t0.Add(time.Second))
	s.Sample(t0.Add(2 * time.Second)) // no new observations
	h.Observe(10)
	s.Sample(t0.Add(3 * time.Second))

	res, err := s.Query("run_seconds", 0, "")
	if err != nil {
		t.Fatal(err)
	}
	if res.Reduce != ReduceAvg || res.Kind != "histogram" {
		t.Fatalf("histogram default reduce/kind = %s/%s, want avg/histogram", res.Reduce, res.Kind)
	}
	want := []float64{3, 10} // idle interval skipped
	if len(res.Points) != len(want) {
		t.Fatalf("got %d avg points, want %d", len(res.Points), len(want))
	}
	for i, p := range res.Points {
		if p.V != want[i] {
			t.Fatalf("avg point %d = %g, want %g", i, p.V, want[i])
		}
	}
	// The derived sub-series are addressable counters in their own right.
	if d, ok := s.Delta("run_seconds", "", "count", 0); !ok || d != 3 {
		t.Fatalf("count sub-series delta = %g/%v, want 3/true", d, ok)
	}
	if _, err := s.Query("run_seconds_count", 0, ReduceRate); err != nil {
		t.Fatalf("querying _count sub-series: %v", err)
	}
	if _, err := s.Query("run_seconds", 0, ReduceRaw); err == nil {
		t.Fatal("raw reduce on a histogram base name should error")
	}
}

func TestLabelledSeriesSelector(t *testing.T) {
	reg := obs.NewRegistry()
	c := reg.Counter("hits_total", "Hits.", obs.L("origin", "job"))
	s := New(reg, Options{Interval: time.Second, Retention: 10 * time.Second})
	t0 := time.Unix(1000, 0)
	s.Sample(t0)
	c.Add(5)
	s.Sample(t0.Add(time.Second))
	res, err := s.Query(`hits_total{origin="job"}`, 0, ReduceDelta)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 1 || res.Points[0].V != 5 {
		t.Fatalf("labelled delta = %+v, want one point of 5", res.Points)
	}
	if _, err := s.Query(`hits_total{origin="sweep"}`, 0, ""); err == nil {
		t.Fatal("unknown label set should error")
	}
}

func TestProbeSeries(t *testing.T) {
	reg := obs.NewRegistry()
	s := New(reg, Options{Interval: time.Second, Retention: 10 * time.Second})
	var good float64
	s.Probe("slo_good_total", obs.RenderLabels(obs.L("objective", "x")), KindCounter,
		func() float64 { return good })
	t0 := time.Unix(1000, 0)
	s.Sample(t0)
	good = 7
	s.Sample(t0.Add(time.Second))
	d, ok := s.Delta("slo_good_total", `{objective="x"}`, "", 0)
	if !ok || d != 7 {
		t.Fatalf("probe delta = %g/%v, want 7/true", d, ok)
	}
}

func TestFractionAbove(t *testing.T) {
	reg := obs.NewRegistry()
	g := reg.Gauge("util", "Utilisation.")
	s := New(reg, Options{Interval: time.Second, Retention: 10 * time.Second})
	t0 := time.Unix(1000, 0)
	for i, v := range []float64{0.2, 0.99, 0.97, 0.5} {
		g.Set(v)
		s.Sample(t0.Add(time.Duration(i) * time.Second))
	}
	f, ok := s.FractionAbove("util", "", 0, 0.95)
	if !ok || f != 0.5 {
		t.Fatalf("FractionAbove = %g/%v, want 0.5/true", f, ok)
	}
	if _, ok := s.FractionAbove("missing", "", 0, 0); ok {
		t.Fatal("FractionAbove on a missing series should report ok=false")
	}
}

func TestAnnotationsRing(t *testing.T) {
	reg := obs.NewRegistry()
	s := New(reg, Options{MaxAnnotations: 3})
	for i := 0; i < 5; i++ {
		s.Annotate("test", string(rune('a'+i)))
	}
	anns := s.Annotations(time.Time{})
	if len(anns) != 3 {
		t.Fatalf("got %d annotations, want 3 (ring capacity)", len(anns))
	}
	if anns[0].Text != "c" || anns[2].Text != "e" {
		t.Fatalf("annotations = %v, want oldest-first c..e", anns)
	}
}

func TestSeriesCap(t *testing.T) {
	reg := obs.NewRegistry()
	for i := 0; i < 5; i++ {
		reg.Gauge("g", "Gauge.", obs.L("i", string(rune('a'+i))))
	}
	s := New(reg, Options{MaxSeries: 3})
	s.Sample(time.Unix(1000, 0))
	if got := len(s.Series()); got != 3 {
		t.Fatalf("retained %d series, want 3 (cap)", got)
	}
	if s.seriesDropped.Load() == 0 {
		t.Fatal("series cap breach not counted")
	}
}

func TestSeriesIndexAndNaNGaps(t *testing.T) {
	reg := obs.NewRegistry()
	reg.Gauge("early", "Gauge.")
	s := New(reg, Options{Interval: time.Second, Retention: 10 * time.Second})
	t0 := time.Unix(1000, 0)
	s.Sample(t0)
	s.Sample(t0.Add(time.Second))
	// A series born mid-retention has NaN slots before its first sample.
	reg.Gauge("late", "Gauge.").Set(9)
	s.Sample(t0.Add(2 * time.Second))
	res, err := s.Query("late", 0, ReduceRaw)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 1 || res.Points[0].V != 9 {
		t.Fatalf("late series points = %+v, want the single real sample", res.Points)
	}
	for _, info := range s.Series() {
		switch info.Name {
		case "early":
			if info.Samples != 3 {
				t.Fatalf("early samples = %d, want 3", info.Samples)
			}
		case "late":
			if info.Samples != 1 {
				t.Fatalf("late samples = %d, want 1", info.Samples)
			}
		}
	}
}

func TestSplitSelector(t *testing.T) {
	for _, tc := range []struct{ in, name, labels string }{
		{"a_total", "a_total", ""},
		{`a_total{x="y"}`, "a_total", `{x="y"}`},
	} {
		n, l := SplitSelector(tc.in)
		if n != tc.name || l != tc.labels {
			t.Fatalf("SplitSelector(%q) = %q,%q", tc.in, n, l)
		}
	}
}

func TestRegisterSelfMetrics(t *testing.T) {
	reg := obs.NewRegistry()
	reg.Gauge("g", "Gauge.")
	s := New(reg, Options{Interval: time.Second, Retention: 10 * time.Second})
	s.Register(reg)
	s.Sample(time.Unix(1000, 0))
	s.Sample(time.Unix(1001, 0))
	res, err := s.Query("obs_tsdb_ticks_total", 0, ReduceRaw)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) == 0 {
		t.Fatal("self-metrics not sampled into the store")
	}
	last := res.Points[len(res.Points)-1].V
	if math.IsNaN(last) || last < 1 {
		t.Fatalf("obs_tsdb_ticks_total last sample = %g, want >= 1", last)
	}
}
