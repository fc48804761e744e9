// Package tsdb is a bounded in-process time-series store over the obs
// metrics registry: a fixed-interval ring of samples per series, so the
// service can answer "what happened over the last N minutes" — rates,
// trends, burn windows — without an external Prometheus.
//
// One Sample tick walks the registry once (Registry.Each), writing the
// current numeric reading of every series into that series' ring slot:
// counters and gauges verbatim, histograms as two derived counter
// series (<name>_sum and <name>_count, which is all a mean-latency or
// burn-rate query needs). Extra "probe" series — callbacks registered
// by the SLO engine — are sampled on the same tick. Derivations
// (per-second rate with counter-reset handling, per-interval delta,
// histogram mean) happen at query time from the raw retained values.
//
// Bounds and cost: memory is slots × series × 8 bytes, fixed at
// construction (retention / interval slots); once every series has
// been seen a tick performs zero allocations.
package tsdb

import (
	"fmt"
	"math"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// Series kinds, matching the registry's family types ("histogram"
// never appears on a stored series: histograms are decomposed into
// counter-kind _sum/_count pairs at sampling time).
const (
	KindCounter = "counter"
	KindGauge   = "gauge"
)

// Reduce names accepted by Query.
const (
	ReduceRaw   = "raw"   // retained values verbatim
	ReduceRate  = "rate"  // per-second increase, counter-reset aware
	ReduceDelta = "delta" // per-interval increase, counter-reset aware
	ReduceAvg   = "avg"   // histogram mean per interval: Δsum/Δcount
)

// Options sizes a Store. Zero fields take the documented defaults.
type Options struct {
	// Interval is the expected sample period; it scales rate derivation
	// and retention slots (default 1s). The caller drives Sample — the
	// store itself owns no goroutine.
	Interval time.Duration
	// Retention is how far back the rings reach (default 16m, enough
	// for the default SLO engine's slowest 15m burn window).
	Retention time.Duration
	// MaxSeries bounds distinct series (default 1024); series beyond it
	// are dropped and counted.
	MaxSeries int
	// MaxAnnotations bounds the annotation ring (default 64).
	MaxAnnotations int
}

func (o Options) withDefaults() Options {
	if o.Interval <= 0 {
		o.Interval = time.Second
	}
	if o.Retention <= 0 {
		o.Retention = 16 * time.Minute
	}
	if o.MaxSeries <= 0 {
		o.MaxSeries = 1024
	}
	if o.MaxAnnotations <= 0 {
		o.MaxAnnotations = 64
	}
	return o
}

// seriesID is the internal identity of one ring: the family name, the
// rendered label set, and for histogram-derived series the sub-sample
// ("sum" or "count"). A composite struct key keeps steady-state map
// lookups allocation-free (no string concatenation per tick).
type seriesID struct {
	name   string
	labels string
	sub    string
}

// displayName is the external spelling of a series: name, histogram
// suffix, then labels — `rfidd_run_seconds_sum{origin="job"}`.
func (id seriesID) displayName() string {
	n := id.name
	if id.sub != "" {
		n += "_" + id.sub
	}
	return n + id.labels
}

// series is one bounded ring of samples, aligned to the store's shared
// tick clock; slots from before the series first appeared hold NaN.
type series struct {
	id   seriesID
	kind string
	vals []float64
}

// probe is an extra sampled callback (SLO good-event counts and the
// like) that has no registry series of its own.
type probe struct {
	ser *series
	fn  func() float64
}

// Annotation is one timestamped event mark (sweep started, job failed,
// alert fired) carried alongside the numeric history.
type Annotation struct {
	T    time.Time `json:"t"`
	Kind string    `json:"kind"`
	Text string    `json:"text"`
}

// Point is one retained (or derived) sample: wall-clock milliseconds
// and a value.
type Point struct {
	TMS int64   `json:"t_ms"`
	V   float64 `json:"v"`
}

// SeriesInfo is one entry of the store's series index.
type SeriesInfo struct {
	Name    string `json:"name"`
	Kind    string `json:"kind"`
	Samples int    `json:"samples"`
}

// Result is one Query answer.
type Result struct {
	Name   string  `json:"name"`
	Kind   string  `json:"kind"`
	Reduce string  `json:"reduce"`
	Points []Point `json:"points"`
}

// Store is the bounded history store. Construct with New.
type Store struct {
	reg   *obs.Registry
	opts  Options
	slots int

	mu     sync.Mutex
	byID   map[seriesID]*series
	byName map[string]*series // displayName → series, for query lookups
	order  []seriesID
	times  []int64 // unix-nanos per ring slot, shared by every series
	head   int     // slot the NEXT tick writes
	n      int     // ticks retained (≤ slots)
	cur    int     // slot the in-flight tick writes (valid inside Sample)
	probes []probe

	ticks         atomic.Uint64
	samplesTotal  atomic.Uint64
	seriesCount   atomic.Int64 // len(byID) mirror for the lock-free gauge
	seriesDropped atomic.Uint64

	annMu sync.Mutex
	anns  obs.Ring[Annotation]
}

// New builds a store sampling reg. The caller drives Sample at
// Options.Interval; tests may call Sample with synthetic times.
func New(reg *obs.Registry, o Options) *Store {
	o = o.withDefaults()
	slots := int(o.Retention / o.Interval)
	if slots < 2 {
		slots = 2
	}
	s := &Store{
		reg:    reg,
		opts:   o,
		slots:  slots,
		byID:   make(map[seriesID]*series),
		byName: make(map[string]*series),
		times:  make([]int64, slots),
		anns:   obs.NewRing[Annotation](o.MaxAnnotations),
	}
	return s
}

// Interval returns the store's configured sample period.
func (s *Store) Interval() time.Duration {
	return s.opts.Interval
}

// Retention returns the store's configured reach.
func (s *Store) Retention() time.Duration {
	return time.Duration(s.slots) * s.opts.Interval
}

// newSeriesLocked creates (or returns) the ring for id; s.mu held.
func (s *Store) newSeriesLocked(id seriesID, kind string) *series {
	if ser, ok := s.byID[id]; ok {
		return ser
	}
	if len(s.byID) >= s.opts.MaxSeries {
		s.seriesDropped.Add(1)
		return nil
	}
	ser := &series{id: id, kind: kind, vals: make([]float64, s.slots)}
	for i := range ser.vals {
		ser.vals[i] = math.NaN()
	}
	s.byID[id] = ser
	s.byName[id.displayName()] = ser
	s.order = append(s.order, id)
	s.seriesCount.Store(int64(len(s.byID)))
	return ser
}

// VisitSample implements obs.SampleVisitor: it is called once per
// registry series during the Sample walk, with s.mu already held.
func (s *Store) VisitSample(sm obs.Sample) {
	switch sm.Kind {
	case "histogram":
		if ser := s.newSeriesLocked(seriesID{sm.Name, sm.Labels, "sum"}, KindCounter); ser != nil {
			ser.vals[s.cur] = sm.Sum
			s.samplesTotal.Add(1)
		}
		if ser := s.newSeriesLocked(seriesID{sm.Name, sm.Labels, "count"}, KindCounter); ser != nil {
			ser.vals[s.cur] = float64(sm.Count)
			s.samplesTotal.Add(1)
		}
	case KindCounter, KindGauge:
		if ser := s.newSeriesLocked(seriesID{sm.Name, sm.Labels, ""}, sm.Kind); ser != nil {
			ser.vals[s.cur] = sm.Value
			s.samplesTotal.Add(1)
		}
	}
}

// Probe registers an extra series sampled from fn on every tick, for
// values that exist nowhere in the registry (SLO good-event counts).
// labels must be a rendered label set (obs.RenderLabels) or "".
func (s *Store) Probe(name, labels, kind string, fn func() float64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	ser := s.newSeriesLocked(seriesID{name, labels, ""}, kind)
	if ser == nil {
		return
	}
	s.probes = append(s.probes, probe{ser: ser, fn: fn})
}

// Sample records one tick at now: every registry series and every
// probe gets its current value written into the tick's ring slot.
// Steady state (no new series) allocates nothing. Callers must pass
// monotonically non-decreasing times.
func (s *Store) Sample(now time.Time) {
	s.mu.Lock()
	s.cur = s.head
	s.times[s.cur] = now.UnixNano()
	s.reg.Each(s)
	for _, p := range s.probes {
		p.ser.vals[s.cur] = p.fn()
		s.samplesTotal.Add(1)
	}
	s.head = (s.head + 1) % s.slots
	if s.n < s.slots {
		s.n++
	}
	s.mu.Unlock()
	s.ticks.Add(1)
}

// Annotate appends one timestamped mark to the bounded annotation
// ring.
func (s *Store) Annotate(kind, text string) {
	s.annMu.Lock()
	s.anns.Push(Annotation{T: time.Now(), Kind: kind, Text: text})
	s.annMu.Unlock()
}

// Annotations returns the retained annotations at or after since,
// oldest first.
func (s *Store) Annotations(since time.Time) []Annotation {
	s.annMu.Lock()
	anns := s.anns.Items()
	s.annMu.Unlock()
	return slices.DeleteFunc(anns, func(a Annotation) bool { return a.T.Before(since) })
}

// Series lists every retained series, registration order.
func (s *Store) Series() []SeriesInfo {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]SeriesInfo, 0, len(s.order))
	for _, id := range s.order {
		ser := s.byID[id]
		n := 0
		for i := 0; i < s.n; i++ {
			if !math.IsNaN(ser.vals[s.slotLocked(i)]) {
				n++
			}
		}
		out = append(out, SeriesInfo{Name: id.displayName(), Kind: ser.kind, Samples: n})
	}
	return out
}

// slotLocked maps "i-th oldest retained tick" to its ring slot.
func (s *Store) slotLocked(i int) int {
	return (s.head - s.n + i + 2*s.slots) % s.slots
}

// SplitSelector splits a series selector into its family name and
// rendered label set: `rfidd_run_seconds{origin="job"}` →
// ("rfidd_run_seconds", `{origin="job"}`); no braces means no labels.
func SplitSelector(sel string) (name, labels string) {
	if i := strings.IndexByte(sel, '{'); i >= 0 {
		return sel[:i], sel[i:]
	}
	return sel, ""
}

// resolveLocked finds the series for a selector, falling back for
// histogram base names (which exist only as _sum/_count pairs) to the
// pair needed by the avg reduction.
func (s *Store) resolveLocked(name, labels string) (ser, sum, count *series) {
	if ser = s.byID[seriesID{name, labels, ""}]; ser != nil {
		return ser, nil, nil
	}
	// Histogram sub-series are addressable by their rendered spelling
	// (`<base>_sum` / `<base>_count`) even though they are keyed on the
	// base name internally.
	if ser = s.byName[name+labels]; ser != nil {
		return ser, nil, nil
	}
	sum = s.byID[seriesID{name, labels, "sum"}]
	count = s.byID[seriesID{name, labels, "count"}]
	if sum == nil || count == nil {
		return nil, nil, nil
	}
	return nil, sum, count
}

// Query derives one series' history over the trailing window (measured
// back from the newest retained tick; window <= 0 means the whole
// retention). reduce "" picks a default by kind: counters rate, gauges
// raw, histogram base names avg. Histogram base selectors support only
// avg; plain series support raw/rate/delta.
func (s *Store) Query(sel string, window time.Duration, reduce string) (Result, error) {
	name, labels := SplitSelector(sel)
	s.mu.Lock()
	defer s.mu.Unlock()
	ser, sum, count := s.resolveLocked(name, labels)
	if ser == nil && sum == nil {
		return Result{}, fmt.Errorf("tsdb: unknown series %s", sel)
	}
	if ser == nil { // histogram pair
		if reduce == "" {
			reduce = ReduceAvg
		}
		if reduce != ReduceAvg {
			return Result{}, fmt.Errorf("tsdb: %s is a histogram; only reduce=avg applies", sel)
		}
		return Result{Name: sel, Kind: "histogram", Reduce: reduce,
			Points: s.reducePairLocked(sum, count, window)}, nil
	}
	if reduce == "" {
		if ser.kind == KindCounter {
			reduce = ReduceRate
		} else {
			reduce = ReduceRaw
		}
	}
	switch reduce {
	case ReduceRaw:
		return Result{Name: sel, Kind: ser.kind, Reduce: reduce,
			Points: s.rawLocked(ser, window)}, nil
	case ReduceRate, ReduceDelta:
		return Result{Name: sel, Kind: ser.kind, Reduce: reduce,
			Points: s.increaseLocked(ser, window, reduce == ReduceRate)}, nil
	case ReduceAvg:
		return Result{}, fmt.Errorf("tsdb: reduce=avg needs a histogram series, %s is a %s", sel, ser.kind)
	default:
		return Result{}, fmt.Errorf("tsdb: unknown reduce %q (want raw, rate, delta or avg)", reduce)
	}
}

// windowStartLocked returns the index (in oldest-first retained order)
// of the first tick inside the trailing window, and the tick count.
func (s *Store) windowStartLocked(window time.Duration) (first, n int) {
	if s.n == 0 {
		return 0, 0
	}
	if window <= 0 {
		return 0, s.n
	}
	newest := s.times[s.slotLocked(s.n-1)]
	cut := newest - int64(window)
	for i := 0; i < s.n; i++ {
		if s.times[s.slotLocked(i)] >= cut {
			return i, s.n
		}
	}
	return s.n - 1, s.n
}

// eachValueLocked calls fn with every retained sample of ser from the
// first-th oldest tick on, oldest first, skipping NaN gaps.
func (s *Store) eachValueLocked(ser *series, first, n int, fn func(slot int, v float64)) {
	for i := first; i < n; i++ {
		slot := s.slotLocked(i)
		if v := ser.vals[slot]; !math.IsNaN(v) {
			fn(slot, v)
		}
	}
}

func (s *Store) rawLocked(ser *series, window time.Duration) []Point {
	first, n := s.windowStartLocked(window)
	out := make([]Point, 0, n-first)
	s.eachValueLocked(ser, first, n, func(slot int, v float64) {
		out = append(out, Point{TMS: s.times[slot] / 1e6, V: v})
	})
	return out
}

// increase is the counter-reset-aware step between two consecutive
// samples: a drop means the process (or counter) restarted, in which
// case the post-reset value itself is the increase — the Prometheus
// convention, so a restart costs at most one interval of undercount
// instead of a huge negative spike.
func increase(prev, cur float64) float64 {
	if d := cur - prev; d >= 0 {
		return d
	}
	return cur
}

// eachIncreaseLocked calls fn with every reset-aware step of ser into
// the first-th oldest tick and on, oldest first: the step into slot
// from the tick before it (prev). Steps with a NaN end are skipped.
func (s *Store) eachIncreaseLocked(ser *series, first, n int, fn func(slot, prev int, d float64)) {
	first = max(first, 1) // the first retained sample has no predecessor
	for i := first; i < n; i++ {
		slot, prev := s.slotLocked(i), s.slotLocked(i-1)
		v0, v1 := ser.vals[prev], ser.vals[slot]
		if math.IsNaN(v0) || math.IsNaN(v1) {
			continue
		}
		fn(slot, prev, increase(v0, v1))
	}
}

func (s *Store) increaseLocked(ser *series, window time.Duration, perSecond bool) []Point {
	first, n := s.windowStartLocked(window)
	out := make([]Point, 0, max(0, n-max(first, 1)))
	s.eachIncreaseLocked(ser, first, n, func(slot, prev int, d float64) {
		if perSecond {
			dt := float64(s.times[slot]-s.times[prev]) / float64(time.Second)
			if dt <= 0 {
				return
			}
			d /= dt
		}
		out = append(out, Point{TMS: s.times[slot] / 1e6, V: d})
	})
	return out
}

// reducePairLocked derives per-interval means Δsum/Δcount for a
// histogram pair; intervals with no new observations are skipped.
func (s *Store) reducePairLocked(sum, count *series, window time.Duration) []Point {
	first, n := s.windowStartLocked(window)
	if first == 0 {
		first = 1
	}
	out := make([]Point, 0, max(0, n-first))
	for i := first; i < n; i++ {
		slot, prev := s.slotLocked(i), s.slotLocked(i-1)
		c0, c1 := count.vals[prev], count.vals[slot]
		s0, s1 := sum.vals[prev], sum.vals[slot]
		if math.IsNaN(c0) || math.IsNaN(c1) || math.IsNaN(s0) || math.IsNaN(s1) {
			continue
		}
		dc := increase(c0, c1)
		if dc <= 0 {
			continue
		}
		ds := increase(s0, s1)
		out = append(out, Point{TMS: s.times[slot] / 1e6, V: ds / dc})
	}
	return out
}

// Delta returns a counter-kind series' total increase over the trailing
// window (reset-aware) and whether the series had at least two samples
// in it. sub selects a histogram sub-sample ("sum"/"count") or "".
func (s *Store) Delta(name, labels, sub string, window time.Duration) (float64, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	ser := s.byID[seriesID{name, labels, sub}]
	if ser == nil {
		return 0, false
	}
	first, n := s.windowStartLocked(window)
	total, steps := 0.0, 0
	s.eachIncreaseLocked(ser, first, n, func(_, _ int, d float64) {
		total += d
		steps++
	})
	return total, steps > 0
}

// FractionAbove returns the fraction of retained samples in the window
// whose value exceeds thr — the time-based error rate of a gauge
// objective — and whether any samples were found.
func (s *Store) FractionAbove(name, labels string, window time.Duration, thr float64) (float64, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	ser := s.byID[seriesID{name, labels, ""}]
	if ser == nil {
		return 0, false
	}
	first, n := s.windowStartLocked(window)
	over, total := 0, 0
	s.eachValueLocked(ser, first, n, func(_ int, v float64) {
		total++
		if v > thr {
			over++
		}
	})
	if total == 0 {
		return 0, false
	}
	return float64(over) / float64(total), true
}

// Register exposes the store's own volume series on reg (they are then
// sampled into the store like any other series).
func (s *Store) Register(reg *obs.Registry) {
	reg.CounterFunc("obs_tsdb_ticks_total",
		"History sampler ticks recorded.", s.ticks.Load)
	reg.CounterFunc("obs_tsdb_samples_total",
		"Individual series samples written into history rings.", s.samplesTotal.Load)
	reg.CounterFunc("obs_tsdb_series_dropped_total",
		"Series rejected by the history store's series cap.", s.seriesDropped.Load)
	// Exposition callbacks run under the registry lock and must stay
	// lock-free, so the series count is mirrored into an atomic.
	reg.GaugeFunc("obs_tsdb_series",
		"Distinct series retained in the history store.", func() float64 {
			return float64(s.seriesCount.Load())
		})
}
