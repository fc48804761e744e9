// Package audit implements a shadow-oracle verdict auditor: while an
// experiment runs with its configured detector, every slot verdict is
// re-classified with the ground truth the simulator already knows (the
// responder count carried on each reception, the same signal
// detect.Oracle reads) and folded into a confusion matrix. This turns
// the paper's analytic misdetection probability 2^-(l·(m-1)) (QCD
// Theorem 1) from an assumption into an online measurement: the auditor
// accumulates the analytically expected number of false singles
// alongside the measured count, so a run can assert its detector
// behaves exactly as modelled — and capture exemplars of the slots
// where it did not.
//
// Auditing is opt-in per run: a run audits its verdicts when its
// context carries an auditor (WithAuditor), as it records spans and
// events when its context carries a span or a bus. Without one a run
// costs one context lookup and allocates nothing on the slot path.
//
// Parallel rounds finish in any order, so the order-dependent parts of
// the report, the exemplar ring and the float sums of the expected
// false singles, wait in each round's Recorder until the run flushes
// the rounds in round order (Recorder.Flush). An audited run's report
// is then the same at any worker count. The integer confusion counts
// and the live "audit" events do not wait.
package audit

import (
	"context"
	"math"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"

	"repro/internal/obs"
	"repro/internal/signal"
)

// Cell is one cell class of the verdict confusion matrix.
type Cell int

// The four confusion cells: a verdict either matches the ground truth
// or misdeclares it as one of the other two slot types.
const (
	CellCorrect Cell = iota
	CellFalseSingle
	CellFalseCollision
	CellFalseIdle
	numCells
)

// String returns the cell's metric label value.
func (c Cell) String() string {
	switch c {
	case CellCorrect:
		return "correct"
	case CellFalseSingle:
		return "false_single"
	case CellFalseCollision:
		return "false_collision"
	default:
		return "false_idle"
	}
}

// cellOf classifies one verdict against the ground truth.
func cellOf(truth, declared signal.SlotType) Cell {
	if truth == declared {
		return CellCorrect
	}
	switch declared {
	case signal.Single:
		return CellFalseSingle
	case signal.Collided:
		return CellFalseCollision
	default:
		return CellFalseIdle
	}
}

// Exemplar is one captured misclassified slot: where it happened, what
// the detector saw, and the offending reconstructed Boolean-sum signal.
type Exemplar struct {
	Detector   string `json:"detector"`
	Strength   int    `json:"l,omitempty"` // QCD strength, 0 when not applicable
	Round      int    `json:"round"`
	Frame      int    `json:"frame"`
	Slot       int    `json:"slot"` // ordinal within the frame
	Truth      string `json:"truth"`
	Declared   string `json:"declared"`
	Responders int    `json:"responders"`
	// R is the random integer every responder must have drawn for a QCD
	// false single (the first half of the overlapped preamble).
	R uint64 `json:"r,omitempty"`
	// Preamble is the reconstructed contention-phase Boolean sum.
	Preamble string `json:"preamble,omitempty"`
}

// Options tunes an Auditor.
type Options struct {
	// ExemplarCap bounds the misclassification exemplar ring
	// (default 64). Beyond it the oldest exemplars are overwritten and
	// counted as dropped.
	ExemplarCap int
}

// Auditor accumulates confusion-matrix counts per (detector, strength)
// and a bounded ring of misclassification exemplars. All methods are
// safe for concurrent use by parallel rounds; the nil *Auditor is a
// valid disabled auditor.
type Auditor struct {
	reg         *obs.Registry
	exemplarCap int

	mu        sync.Mutex
	series    map[string]*series
	exemplars obs.Ring[Exemplar]

	exemplarsDropped atomic.Uint64
}

// series is the per-(detector, strength) accumulator set. Counters are
// atomic so parallel rounds fold in without contention; the expected
// false-single mass uses obs.Gauge as a CAS float accumulator.
type series struct {
	detector string
	strength int

	cells        [numCells]*obs.Counter
	trueCollided atomic.Uint64
	expMisses    obs.Gauge // Σ 2^-(l·(m-1)) over true-collided slots
	expVar       obs.Gauge // Σ p·(1-p), the variance of that sum
}

// New returns an auditor exporting its series on reg. reg must not be
// nil; a disabled auditor is simply a nil *Auditor.
func New(reg *obs.Registry, o Options) *Auditor {
	if o.ExemplarCap < 1 {
		o.ExemplarCap = 64
	}
	return &Auditor{
		reg:         reg,
		exemplarCap: o.ExemplarCap,
		series:      make(map[string]*series),
		exemplars:   obs.NewRing[Exemplar](o.ExemplarCap),
	}
}

// Enabled reports whether verdicts are being audited.
func (a *Auditor) Enabled() bool { return a != nil }

// seriesFor returns (registering on first use) the accumulator set for
// one detector configuration.
func (a *Auditor) seriesFor(detector string, strength int) *series {
	key := detector + "\x00" + strconv.Itoa(strength)
	a.mu.Lock()
	s, ok := a.series[key]
	a.mu.Unlock()
	if ok {
		return s
	}

	// Register outside a.mu: the registry has its own lock, and the
	// gauge callbacks below must stay lock-free (they run during the
	// registry's exposition walk). The counters exist before the series
	// is published, so a round on another worker never observes a nil
	// cell; Counter is get-or-create, so a racing creator shares them.
	s = &series{detector: detector, strength: strength}
	base := []obs.Label{obs.L("detector", detector), obs.L("l", strconv.Itoa(strength))}
	const cellsHelp = "Slot verdicts audited against the ground-truth oracle, by confusion cell."
	for c := Cell(0); c < numCells; c++ {
		s.cells[c] = a.reg.Counter("sim_audit_verdicts_total", cellsHelp,
			append(append([]obs.Label{}, base...), obs.L("cell", c.String()))...)
	}
	a.mu.Lock()
	if prev, ok := a.series[key]; ok {
		a.mu.Unlock()
		return prev
	}
	a.series[key] = s
	a.mu.Unlock()
	a.reg.GaugeFunc("sim_audit_false_single_rate",
		"Measured false singles per ground-truth collided slot.",
		func() float64 { return ratio(s.cells[CellFalseSingle].Value(), s.trueCollided.Load()) },
		base...)
	a.reg.GaugeFunc("sim_audit_false_single_rate_expected",
		"Analytic false singles per ground-truth collided slot: mean of 2^-(l*(m-1)).",
		func() float64 { return s.expMisses.Value() / math.Max(1, float64(s.trueCollided.Load())) },
		base...)
	return s
}

func ratio(num, den uint64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// Recorder returns a per-round hot-path handle feeding this auditor.
// strength is the QCD strength l (0 for detectors without one); bus, if
// non-nil, receives one "audit" event per misclassified slot.
func (a *Auditor) Recorder(detector string, strength, round int, bus *obs.Bus) *Recorder {
	if a == nil {
		return nil
	}
	return &Recorder{a: a, s: a.seriesFor(detector, strength), round: round, bus: bus}
}

// Recorder observes one round's verdicts. It is owned by a single
// round (not concurrency-safe itself); all shared state it touches is.
// It keeps the round's exemplars (at most the auditor's ExemplarCap,
// newest kept) and expected-miss terms until Flush.
type Recorder struct {
	a   *Auditor
	s   *series
	bus *obs.Bus

	round, frame, slot int

	exemplars obs.Ring[Exemplar] // allocated at the round's first exemplar
	dropped   uint64             // exemplars the round's own ring overwrote
	terms     []float64          // 2^-(l·(m-1)) per true-collided slot, in slot order
}

// Observe folds one slot verdict into the confusion matrix. truth is
// the oracle's classification, declared the configured detector's; rx
// is the contention-phase reception (its signal is only read here —
// the underlying channel buffer is reused by the next slot, so any
// exemplar capture copies what it needs immediately).
func (r *Recorder) Observe(truth, declared signal.SlotType, rx signal.Reception) {
	cell := cellOf(truth, declared)
	r.s.cells[cell].Inc()
	if truth == signal.Collided {
		r.s.trueCollided.Add(1)
		if l := r.s.strength; l > 0 && rx.Responders > 1 {
			// QCD Theorem 1: this collision is missed iff all m
			// responders drew the same integer, p = 2^-(l·(m-1)).
			r.terms = append(r.terms, math.Pow(2, -float64(l)*float64(rx.Responders-1)))
		}
	}
	if cell == CellCorrect {
		r.slot++
		return
	}
	ex := Exemplar{
		Detector:   r.s.detector,
		Strength:   r.s.strength,
		Round:      r.round,
		Frame:      r.frame,
		Slot:       r.slot,
		Truth:      truth.String(),
		Declared:   declared.String(),
		Responders: rx.Responders,
		Preamble:   rx.Signal.String(),
	}
	if l := r.s.strength; l > 0 && rx.Signal.Len() == 2*l {
		ex.R = rx.Signal.Uint64Range(0, l)
	}
	if r.exemplars.Len() == 0 {
		r.exemplars = obs.NewRing[Exemplar](r.a.exemplarCap)
	}
	if r.exemplars.Push(ex) {
		r.dropped++
	}
	if r.bus != nil {
		r.bus.Publish("audit", map[string]any{
			"detector": ex.Detector, "l": ex.Strength,
			"round": ex.Round, "frame": ex.Frame, "slot": ex.Slot,
			"truth": ex.Truth, "declared": ex.Declared,
			"responders": ex.Responders, "preamble": ex.Preamble,
		})
	}
	r.slot++
}

// EndFrame marks a frame boundary for exemplar coordinates.
func (r *Recorder) EndFrame() {
	r.frame++
	r.slot = 0
}

// Flush folds the round's kept exemplars and expected-miss terms into
// the auditor, in the order the round observed them, and empties the
// recorder. A run flushes its rounds in round order once they have all
// returned, so the report does not depend on which round finished
// first. A nil recorder flushes nothing.
func (r *Recorder) Flush() {
	if r == nil {
		return
	}
	for _, p := range r.terms {
		r.s.expMisses.Add(p)
		r.s.expVar.Add(p * (1 - p))
	}
	a := r.a
	a.mu.Lock()
	for _, ex := range r.exemplars.Items() {
		if a.exemplars.Push(ex) {
			r.dropped++
		}
	}
	a.mu.Unlock()
	a.exemplarsDropped.Add(r.dropped)
	r.terms, r.exemplars, r.dropped = r.terms[:0], obs.Ring[Exemplar]{}, 0
}

// DetectorReport is the per-(detector, strength) summary of a Report.
type DetectorReport struct {
	Detector string `json:"detector"`
	Strength int    `json:"l,omitempty"`

	Correct        uint64 `json:"correct"`
	FalseSingle    uint64 `json:"false_single"`
	FalseCollision uint64 `json:"false_collision"`
	FalseIdle      uint64 `json:"false_idle"`
	TrueCollided   uint64 `json:"true_collided"`

	FalseSingleRate float64 `json:"false_single_rate"`
	// ExpectedFalseSingles is Σ 2^-(l·(m-1)) over the audited
	// true-collided slots — the analytic mean of FalseSingle — and
	// ExpectedStdDev the standard deviation of that sum, so callers can
	// run an n-sigma agreement check against the paper's model.
	ExpectedFalseSingles    float64 `json:"expected_false_singles"`
	ExpectedFalseSingleRate float64 `json:"expected_false_single_rate"`
	ExpectedStdDev          float64 `json:"expected_stddev"`
}

// Report is the auditor's full state in JSON-ready form.
type Report struct {
	Detectors        []DetectorReport `json:"detectors"`
	Exemplars        []Exemplar       `json:"exemplars"`
	ExemplarsDropped uint64           `json:"exemplars_dropped"`
}

// Report snapshots the confusion matrix and exemplar ring; exemplars
// and expected false singles cover the flushed rounds. Detector entries
// are sorted by name then strength, exemplars oldest first.
func (a *Auditor) Report() Report {
	if a == nil {
		return Report{}
	}
	a.mu.Lock()
	all := make([]*series, 0, len(a.series))
	for _, s := range a.series {
		all = append(all, s)
	}
	exemplars := a.exemplars.Items()
	a.mu.Unlock()

	sort.Slice(all, func(i, j int) bool {
		if all[i].detector != all[j].detector {
			return all[i].detector < all[j].detector
		}
		return all[i].strength < all[j].strength
	})
	rep := Report{
		Detectors:        make([]DetectorReport, 0, len(all)),
		Exemplars:        exemplars,
		ExemplarsDropped: a.exemplarsDropped.Load(),
	}
	for _, s := range all {
		tc := s.trueCollided.Load()
		rep.Detectors = append(rep.Detectors, DetectorReport{
			Detector:                s.detector,
			Strength:                s.strength,
			Correct:                 s.cells[CellCorrect].Value(),
			FalseSingle:             s.cells[CellFalseSingle].Value(),
			FalseCollision:          s.cells[CellFalseCollision].Value(),
			FalseIdle:               s.cells[CellFalseIdle].Value(),
			TrueCollided:            tc,
			FalseSingleRate:         ratio(s.cells[CellFalseSingle].Value(), tc),
			ExpectedFalseSingles:    s.expMisses.Value(),
			ExpectedFalseSingleRate: s.expMisses.Value() / math.Max(1, float64(tc)),
			ExpectedStdDev:          math.Sqrt(s.expVar.Value()),
		})
	}
	return rep
}

// auditorKey carries an *Auditor through context.
type auditorKey struct{}

// WithAuditor returns a context whose runs fold their verdicts into a
// (a nil a is fine and audits nothing downstream).
func WithAuditor(ctx context.Context, a *Auditor) context.Context {
	return context.WithValue(ctx, auditorKey{}, a)
}

// AuditorFrom returns the context's auditor, or nil (auditing off)
// when none was attached.
func AuditorFrom(ctx context.Context) *Auditor {
	a, _ := ctx.Value(auditorKey{}).(*Auditor)
	return a
}
