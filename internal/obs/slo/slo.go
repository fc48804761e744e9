// Package slo evaluates declarative service-level objectives over the
// metrics history store as multi-window burn rates.
//
// An objective says "fraction X of events must be good" (latency under
// a bound, cache lookups that hit) or "this gauge must stay under a
// bound" (worker utilisation, goroutines). The error budget is
// 1-target; the burn rate over a window is the observed bad fraction
// divided by that budget — burn 1 means spending the budget exactly at
// the sustainable pace, burn 14 means the budget is gone in 1/14th of
// the SLO period. Following the multi-window pattern from the SRE
// workbook, each objective is checked against a fast pair (short +
// long window, high burn threshold: catches sharp regressions in
// seconds) and a slow pair (longer windows, lower threshold: catches
// smoulder). An alert goes pending when a short window alone exceeds
// its threshold, fires when a short AND its long window both exceed
// (the long window suppresses blips), and resolves when every burn
// drops back under.
//
// Transitions are published on the event bus (type "alert"), counted
// into the registry, and annotated into the history store, so the same
// breach is visible on /v1/alerts, the SSE stream, statusz, and
// rfidtop. The windows default to sim-scale (seconds to minutes, not
// the workbook's hours) because rfidd's experiments live at that
// scale; a config file can restore production-scale pairs.
package slo

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/obs/tsdb"
)

// Objective kinds.
const (
	// KindLatency judges a histogram: good events are observations at
	// or under Threshold seconds (counted via the bucket bound), total
	// is the observation count.
	KindLatency = "latency"
	// KindRatio judges counters: good is the sum of the Good series'
	// increases, total the sum of the Total series'.
	KindRatio = "ratio"
	// KindGauge judges a gauge by time: the bad fraction is the share
	// of sampled ticks on which the gauge exceeded Threshold.
	KindGauge = "gauge"
)

// Alert states.
const (
	StateInactive = "inactive"
	StatePending  = "pending"
	StateFiring   = "firing"
	StateResolved = "resolved"
)

// windowNames label the four burn windows on gauges and alerts.
var windowNames = [4]string{"fast", "fast_long", "slow", "slow_long"}

// Duration is a time.Duration that marshals as a Go duration string
// ("30s", "5m") so SLO config files stay readable.
type Duration time.Duration

func (d Duration) D() time.Duration { return time.Duration(d) }

func (d Duration) MarshalJSON() ([]byte, error) {
	return json.Marshal(time.Duration(d).String())
}

func (d *Duration) UnmarshalJSON(b []byte) error {
	var s string
	if err := json.Unmarshal(b, &s); err != nil {
		return fmt.Errorf("slo: duration must be a string like \"30s\": %w", err)
	}
	v, err := time.ParseDuration(s)
	if err != nil {
		return fmt.Errorf("slo: bad duration %q: %w", s, err)
	}
	*d = Duration(v)
	return nil
}

// Windows is one multi-window burn-rate policy shared by every
// objective: a fast short/long pair and a slow short/long pair, each
// with its burn threshold.
type Windows struct {
	Fast     Duration `json:"fast"`
	FastLong Duration `json:"fast_long"`
	FastBurn float64  `json:"fast_burn"`
	Slow     Duration `json:"slow"`
	SlowLong Duration `json:"slow_long"`
	SlowBurn float64  `json:"slow_burn"`
}

// Objective is one declarative SLO.
type Objective struct {
	Name string `json:"name"`
	Kind string `json:"kind"` // latency, ratio or gauge
	// Series selects the judged series for latency (a histogram) and
	// gauge objectives, e.g. `rfidd_run_seconds{origin="job"}`.
	Series string `json:"series,omitempty"`
	// Good/Total select the counter series summed for ratio objectives.
	Good  []string `json:"good,omitempty"`
	Total []string `json:"total,omitempty"`
	// Threshold is the latency bound in seconds (latency) or the gauge
	// ceiling (gauge); it should coincide with a histogram bucket bound
	// for latency objectives (the good count is bucket-resolved).
	Threshold float64 `json:"threshold,omitempty"`
	// Target is the objective itself: the required good fraction
	// (latency, ratio) or in-bounds time fraction (gauge), in (0,1).
	Target      float64 `json:"target"`
	Description string  `json:"description,omitempty"`
}

// Config is a full SLO policy: the shared windows plus the objectives.
type Config struct {
	Windows    Windows     `json:"windows"`
	Objectives []Objective `json:"objectives"`
}

// DefaultWindows is the sim-scale translation of the SRE workbook's
// 5m/1h + 30m/6h multi-window pairs: rfidd experiments complete in
// seconds-to-minutes, so the fast pair is 30s/5m at burn 14.4 and the
// slow pair 2m/15m at burn 6. The default tsdb retention (16m) covers
// the slowest window.
func DefaultWindows() Windows {
	return Windows{
		Fast: Duration(30 * time.Second), FastLong: Duration(5 * time.Minute), FastBurn: 14.4,
		Slow: Duration(2 * time.Minute), SlowLong: Duration(15 * time.Minute), SlowBurn: 6,
	}
}

// DefaultConfig covers the service's load-bearing surfaces: run and
// queue-wait latency per origin, sweep window wait, cache hit ratio,
// worker saturation, and the runtime collector's goroutine/heap
// gauges.
func DefaultConfig() Config {
	return Config{
		Windows: DefaultWindows(),
		Objectives: []Objective{
			{Name: "run-latency-job", Kind: KindLatency,
				Series: `rfidd_run_seconds{origin="job"}`, Threshold: 5, Target: 0.99,
				Description: "99% of job runs complete within 5s."},
			{Name: "run-latency-sweep", Kind: KindLatency,
				Series: `rfidd_run_seconds{origin="sweep"}`, Threshold: 5, Target: 0.99,
				Description: "99% of sweep cell runs complete within 5s."},
			{Name: "queue-wait-job", Kind: KindLatency,
				Series: `rfidd_queue_wait_seconds{origin="job"}`, Threshold: 1, Target: 0.95,
				Description: "95% of jobs start within 1s of submission."},
			{Name: "queue-wait-sweep", Kind: KindLatency,
				Series: `rfidd_queue_wait_seconds{origin="sweep"}`, Threshold: 1, Target: 0.95,
				Description: "95% of sweep cells start within 1s of submission."},
			{Name: "sweep-window-wait", Kind: KindLatency,
				Series: "rfidd_sweep_window_wait_seconds", Threshold: 1, Target: 0.95,
				Description: "95% of sweep cells clear the admission window within 1s."},
			{Name: "cache-hit-ratio", Kind: KindRatio,
				Good:        []string{"rfidd_cache_hits_total"},
				Total:       []string{"rfidd_cache_hits_total", "rfidd_cache_misses_total"},
				Target:      0.05,
				Description: "At least 5% of lookups hit the cache (burn tracks miss pressure)."},
			{Name: "worker-saturation", Kind: KindGauge,
				Series: "rfidd_worker_utilisation", Threshold: 0.95, Target: 0.9,
				Description: "Worker pool under 95% busy at least 90% of the time."},
			{Name: "runtime-goroutines", Kind: KindGauge,
				Series: "runtime_goroutines", Threshold: 5000, Target: 0.9,
				Description: "Goroutine count stays under 5000 (leak detector)."},
			{Name: "runtime-heap", Kind: KindGauge,
				Series: "runtime_heap_inuse_bytes", Threshold: 1 << 30, Target: 0.9,
				Description: "Heap in use stays under 1 GiB."},
		},
	}
}

// Load reads a Config from a JSON file (unknown fields rejected) and
// validates it.
func Load(path string) (Config, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return Config{}, fmt.Errorf("slo: %w", err)
	}
	var c Config
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&c); err != nil {
		return Config{}, fmt.Errorf("slo: parsing %s: %w", path, err)
	}
	if c.Windows == (Windows{}) {
		c.Windows = DefaultWindows()
	}
	if err := c.Validate(); err != nil {
		return Config{}, fmt.Errorf("slo: %s: %w", path, err)
	}
	return c, nil
}

// Validate checks the config is internally coherent.
func (c Config) Validate() error {
	w := c.Windows
	if w.Fast <= 0 || w.FastLong < w.Fast || w.Slow <= 0 || w.SlowLong < w.Slow {
		return fmt.Errorf("windows must satisfy 0 < fast <= fast_long and 0 < slow <= slow_long")
	}
	if w.FastBurn <= 0 || w.SlowBurn <= 0 {
		return fmt.Errorf("burn thresholds must be positive")
	}
	seen := make(map[string]bool, len(c.Objectives))
	for i, o := range c.Objectives {
		if o.Name == "" {
			return fmt.Errorf("objective %d: missing name", i)
		}
		if seen[o.Name] {
			return fmt.Errorf("objective %q: duplicate name", o.Name)
		}
		seen[o.Name] = true
		if o.Target <= 0 || o.Target >= 1 {
			return fmt.Errorf("objective %q: target must be in (0,1), got %g", o.Name, o.Target)
		}
		switch o.Kind {
		case KindLatency:
			if o.Series == "" || o.Threshold <= 0 {
				return fmt.Errorf("objective %q: latency objectives need series and a positive threshold", o.Name)
			}
		case KindRatio:
			if len(o.Good) == 0 || len(o.Total) == 0 {
				return fmt.Errorf("objective %q: ratio objectives need good and total series", o.Name)
			}
		case KindGauge:
			if o.Series == "" {
				return fmt.Errorf("objective %q: gauge objectives need series", o.Name)
			}
		default:
			return fmt.Errorf("objective %q: unknown kind %q (want latency, ratio or gauge)", o.Name, o.Kind)
		}
	}
	return nil
}

// Alert is one objective's externally visible alert status.
type Alert struct {
	Objective   string             `json:"objective"`
	Kind        string             `json:"kind"`
	Description string             `json:"description,omitempty"`
	Target      float64            `json:"target"`
	Threshold   float64            `json:"threshold,omitempty"`
	State       string             `json:"state"`
	Since       time.Time          `json:"since,omitempty"`
	Burn        map[string]float64 `json:"burn"`
}

// objState is one objective's runtime: its spec, resolved selectors,
// gauges, and alert state machine.
type objState struct {
	spec               Objective
	name, labels       string // parsed Series selector
	goodLabels         string // latency: the installed probe's label set
	state              string
	since              time.Time
	burn               [4]float64
	burnGauges         [4]*obs.Gauge
	transitionCounters map[string]*obs.Counter // state → counter
}

// Engine evaluates a Config against a history store. A nil *Engine is
// a valid disabled engine: Evaluate and Alerts are no-ops.
type Engine struct {
	cfg   Config
	store *tsdb.Store
	bus   *obs.Bus

	mu     sync.Mutex
	objs   []*objState
	firing *obs.Gauge
}

// New builds an engine over store, wiring its latency good-event
// probes into the store, its burn/transition series into reg, and its
// transition events onto bus (bus may be nil). The caller drives
// Evaluate after each store Sample tick.
func New(cfg Config, store *tsdb.Store, reg *obs.Registry, bus *obs.Bus) (*Engine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	e := &Engine{cfg: cfg, store: store, bus: bus}
	e.firing = reg.Gauge("slo_alerts_firing", "SLO alerts currently firing.")
	reg.GaugeFunc("slo_objectives", "SLO objectives under evaluation.",
		func() float64 { return float64(len(cfg.Objectives)) })
	for _, spec := range cfg.Objectives {
		o := &objState{spec: spec, state: StateInactive,
			transitionCounters: make(map[string]*obs.Counter, 4)}
		o.name, o.labels = tsdb.SplitSelector(spec.Series)
		for i, w := range windowNames {
			o.burnGauges[i] = reg.Gauge("slo_burn_rate",
				"Error-budget burn rate per objective and window.",
				obs.L("objective", spec.Name), obs.L("window", w))
		}
		for _, st := range []string{StatePending, StateFiring, StateResolved, StateInactive} {
			o.transitionCounters[st] = reg.Counter("slo_transitions_total",
				"SLO alert state transitions by destination state.",
				obs.L("objective", spec.Name), obs.L("to", st))
		}
		if spec.Kind == KindLatency {
			o.goodLabels = obs.RenderLabels(obs.L("objective", spec.Name))
			e.installGoodProbe(o, reg)
		}
		e.objs = append(e.objs, o)
	}
	return e, nil
}

// installGoodProbe samples the judged histogram's under-threshold
// count into the store as slo_good_total{objective=...}. The histogram
// is looked up lazily (the judged series may be registered after the
// engine) and cached once found.
func (e *Engine) installGoodProbe(o *objState, reg *obs.Registry) {
	var h *obs.Histogram
	name, labels, thr := o.name, o.labels, o.spec.Threshold
	e.store.Probe("slo_good_total", o.goodLabels, tsdb.KindCounter, func() float64 {
		if h == nil {
			h = reg.LookupHistogram(name, labels)
			if h == nil {
				return 0
			}
		}
		return float64(h.CumulativeAtMost(thr))
	})
}

// Config returns the engine's policy (zero Config when disabled).
func (e *Engine) Config() Config {
	if e == nil {
		return Config{}
	}
	return e.cfg
}

// badFraction measures one objective's bad-event (or bad-time)
// fraction over a trailing window; ok is false when the window holds
// no evidence (no events, series absent), which evaluates as burn 0 —
// an idle service is not out of SLO.
func (e *Engine) badFraction(o *objState, w time.Duration) (float64, bool) {
	switch o.spec.Kind {
	case KindLatency:
		total, ok := e.store.Delta(o.name, o.labels, "count", w)
		if !ok || total <= 0 {
			return 0, false
		}
		good, _ := e.store.Delta("slo_good_total", o.goodLabels, "", w)
		if good > total {
			good = total // probe and histogram sampled a tick apart
		}
		return 1 - good/total, true
	case KindRatio:
		var good, total float64
		any := false
		for _, sel := range o.spec.Good {
			n, l := tsdb.SplitSelector(sel)
			if d, ok := e.store.Delta(n, l, "", w); ok {
				good += d
				any = true
			}
		}
		for _, sel := range o.spec.Total {
			n, l := tsdb.SplitSelector(sel)
			if d, ok := e.store.Delta(n, l, "", w); ok {
				total += d
				any = true
			}
		}
		if !any || total <= 0 {
			return 0, false
		}
		if good > total {
			good = total
		}
		return 1 - good/total, true
	case KindGauge:
		return e.store.FractionAbove(o.name, o.labels, w, o.spec.Threshold)
	}
	return 0, false
}

// Evaluate recomputes every objective's burn rates as of the store's
// current contents and advances the alert state machines, emitting
// transition events. Call it after each Sample tick.
func (e *Engine) Evaluate(now time.Time) {
	if e == nil {
		return
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	w := e.cfg.Windows
	windows := [4]time.Duration{w.Fast.D(), w.FastLong.D(), w.Slow.D(), w.SlowLong.D()}
	firing := 0
	for _, o := range e.objs {
		budget := 1 - o.spec.Target
		for i, win := range windows {
			frac, ok := e.badFraction(o, win)
			if !ok {
				o.burn[i] = 0
			} else {
				o.burn[i] = frac / budget
			}
			o.burnGauges[i].Set(o.burn[i])
		}
		fastHot := o.burn[0] >= w.FastBurn
		fastConfirmed := fastHot && o.burn[1] >= w.FastBurn
		slowHot := o.burn[2] >= w.SlowBurn
		slowConfirmed := slowHot && o.burn[3] >= w.SlowBurn
		next := o.state
		switch {
		case fastConfirmed || slowConfirmed:
			next = StateFiring
		case fastHot || slowHot:
			if o.state != StateFiring {
				next = StatePending
			}
		default:
			switch o.state {
			case StateFiring:
				next = StateResolved
			case StatePending:
				next = StateInactive
			case StateResolved:
				// Quiet for a full fast window → back to inactive.
				if now.Sub(o.since) >= w.Fast.D() {
					next = StateInactive
				}
			}
		}
		if next != o.state {
			e.transitionLocked(o, next, now)
		}
		if o.state == StateFiring {
			firing++
		}
	}
	e.firing.Set(float64(firing))
}

// transitionLocked advances one objective's state and broadcasts it.
func (e *Engine) transitionLocked(o *objState, next string, now time.Time) {
	prev := o.state
	o.state = next
	o.since = now
	o.transitionCounters[next].Inc()
	text := fmt.Sprintf("slo %s: %s -> %s (burn fast %.1f slow %.1f)",
		o.spec.Name, prev, next, o.burn[0], o.burn[2])
	e.store.Annotate("alert", text)
	e.bus.Publish("alert", map[string]any{
		"objective": o.spec.Name,
		"from":      prev,
		"to":        next,
		"burn": map[string]float64{
			windowNames[0]: o.burn[0], windowNames[1]: o.burn[1],
			windowNames[2]: o.burn[2], windowNames[3]: o.burn[3],
		},
		"target": o.spec.Target,
	})
}

// Alerts snapshots every objective's status, config order.
func (e *Engine) Alerts() []Alert {
	if e == nil {
		return nil
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	out := make([]Alert, 0, len(e.objs))
	for _, o := range e.objs {
		a := Alert{
			Objective:   o.spec.Name,
			Kind:        o.spec.Kind,
			Description: o.spec.Description,
			Target:      o.spec.Target,
			Threshold:   o.spec.Threshold,
			State:       o.state,
			Burn:        make(map[string]float64, 4),
		}
		if o.state != StateInactive {
			a.Since = o.since
		}
		for i, w := range windowNames {
			a.Burn[w] = o.burn[i]
		}
		out = append(out, a)
	}
	return out
}

// Firing returns the currently firing alerts only.
func (e *Engine) Firing() []Alert {
	all := e.Alerts()
	out := all[:0]
	for _, a := range all {
		if a.State == StateFiring {
			out = append(out, a)
		}
	}
	return out
}
