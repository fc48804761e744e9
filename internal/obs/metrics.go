package obs

import (
	"fmt"
	"io"
	"math"
	"strings"
	"sync"
	"sync/atomic"
)

// DefaultLatencyBuckets are per-job latency histogram bounds in seconds,
// spanning cache-warm sub-millisecond jobs to minute-long sweeps.
var DefaultLatencyBuckets = []float64{
	0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1, 5, 10, 30, 60,
}

// Label is one fixed name/value pair attached to a metric series.
type Label struct{ Key, Value string }

// L is shorthand for Label{Key: k, Value: v}.
func L(k, v string) Label { return Label{Key: k, Value: v} }

// RenderLabels renders a label set exactly as the registry keys its
// series (`{k="v",...}`, "" for the empty set), so external consumers —
// the metrics-history store, SLO selectors — can name a series without
// duplicating the escaping rules.
func RenderLabels(labels ...Label) string { return renderLabels(labels) }

// renderLabels encodes a label set as `{k="v",...}` in the given order,
// escaping per the Prometheus text format. Empty sets render as "".
func renderLabels(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, l := range labels {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Key)
		b.WriteString(`="`)
		b.WriteString(escapeLabelValue(l.Value))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

func escapeLabelValue(v string) string {
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(v)
}

// collector is one series of a family: it renders its sample lines.
type collector interface {
	writeSeries(w io.Writer, name, labels string)
}

// Counter is a monotonically increasing uint64 series.
type Counter struct{ v atomic.Uint64 }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

func (c *Counter) writeSeries(w io.Writer, name, labels string) {
	fmt.Fprintf(w, "%s%s %d\n", name, labels, c.v.Load())
}

// Gauge is a settable float64 series.
type Gauge struct{ bits atomic.Uint64 }

// Set stores v.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add adds delta (negative values subtract).
func (g *Gauge) Add(delta float64) {
	// Inlined, delta may still be a caller's unrounded product (audit's
	// p·(1-p)); the conversion keeps the sum from fusing with it.
	delta = float64(delta)
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + delta)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

func (g *Gauge) writeSeries(w io.Writer, name, labels string) {
	fmt.Fprintf(w, "%s%s %g\n", name, labels, g.Value())
}

// counterFunc samples a callback at exposition time.
type counterFunc struct{ fn func() uint64 }

func (c *counterFunc) writeSeries(w io.Writer, name, labels string) {
	fmt.Fprintf(w, "%s%s %d\n", name, labels, c.fn())
}

// floatCounterFunc samples a float-valued cumulative callback at
// exposition time (counter semantics, gauge-style rendering).
type floatCounterFunc struct{ fn func() float64 }

func (c *floatCounterFunc) writeSeries(w io.Writer, name, labels string) {
	fmt.Fprintf(w, "%s%s %g\n", name, labels, c.fn())
}

// gaugeFunc samples a callback at exposition time.
type gaugeFunc struct{ fn func() float64 }

func (g *gaugeFunc) writeSeries(w io.Writer, name, labels string) {
	fmt.Fprintf(w, "%s%s %g\n", name, labels, g.fn())
}

// Histogram is a fixed-bucket histogram with le-inclusive upper bounds
// and an implicit +Inf overflow bucket.
type Histogram struct {
	mu     sync.Mutex
	bounds []float64 // ascending upper bounds, +Inf implicit
	counts []uint64  // one per bound, plus the +Inf overflow at the end
	sum    float64
	total  uint64
}

// NewHistogram builds an unregistered histogram (tests and ad-hoc use);
// prefer Registry.Histogram for exposed series.
func NewHistogram(bounds ...float64) *Histogram {
	return &Histogram{bounds: bounds, counts: make([]uint64, len(bounds)+1)}
}

// Observe records one value: it lands in the first bucket whose upper
// bound is >= v (`le` semantics), or the +Inf bucket beyond the last.
func (h *Histogram) Observe(v float64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i]++
	h.sum += v
	h.total++
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.total
}

// Snapshot returns the sum and count under one lock acquisition, so a
// periodic sampler sees a consistent (sum, count) pair.
func (h *Histogram) Snapshot() (sum float64, count uint64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.sum, h.total
}

// CumulativeAtMost returns how many observations landed in buckets whose
// upper bound is <= bound — the "good event" count for a latency
// objective "X% of requests under bound seconds". A bound below the
// first bucket counts nothing; a bound at or above the last finite
// bucket counts everything except the +Inf overflow.
func (h *Histogram) CumulativeAtMost(bound float64) uint64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	var cum uint64
	for i, b := range h.bounds {
		if b > bound {
			break
		}
		cum += h.counts[i]
	}
	return cum
}

// Sum returns the sum of observed values.
func (h *Histogram) Sum() float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.sum
}

// BucketCounts returns the per-bucket (non-cumulative) counts, the last
// entry being the +Inf overflow bucket.
func (h *Histogram) BucketCounts() []uint64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	out := make([]uint64, len(h.counts))
	copy(out, h.counts)
	return out
}

// writeSeries emits the histogram in Prometheus text exposition format
// with cumulative bucket counts. Fixed labels are merged with `le`.
func (h *Histogram) writeSeries(w io.Writer, name, labels string) {
	h.mu.Lock()
	defer h.mu.Unlock()
	le := func(bound string) string {
		if labels == "" {
			return `{le="` + bound + `"}`
		}
		return labels[:len(labels)-1] + `,le="` + bound + `"}`
	}
	cum := uint64(0)
	for i, b := range h.bounds {
		cum += h.counts[i]
		fmt.Fprintf(w, "%s_bucket%s %d\n", name, le(fmt.Sprintf("%g", b)), cum)
	}
	cum += h.counts[len(h.bounds)]
	fmt.Fprintf(w, "%s_bucket%s %d\n", name, le("+Inf"), cum)
	fmt.Fprintf(w, "%s_sum%s %g\n", name, labels, h.sum)
	fmt.Fprintf(w, "%s_count%s %d\n", name, labels, h.total)
}
