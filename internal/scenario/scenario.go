// Package scenario is the streaming warehouse simulation of the paper's
// Section VI-D motivation at production scale: tags flow through a 2-D
// arena past a grid of readers, every reader runs its inventory inside
// the interference-colouring schedule of internal/deploy, and the system
// tracks each tag's first-read latency and the miss rate — the fraction
// of readable tags that leave the arena unread.
//
// Three structural choices make a million tags through a hundred readers
// a minutes-of-wall-time workload instead of an overnight one:
//
//   - Event-driven time: arrivals come off a Poisson stream, drawn with
//     their coverage one colour group ahead of the clock, and departures
//     off a bucket-pooled time wheel (Wheel), so advancing the clock
//     costs O(events), never O(live tags).
//   - Colour-class parallelism: readers of one interference colour are
//     mutually safe by construction, so they run concurrently — one
//     goroutine per reader over pooled scratch — while determinism is
//     pinned by per-reader PRNG streams (prng.SplitInto) and a serial
//     merge in reader order.
//   - Incremental inventory: each reader carries a CSCT-style priority
//     queue of unresolved collision contexts across its activations, so
//     an arriving tag costs the frames needed to resolve it, never a
//     re-inventory of the reader's whole field.
//
// The per-tag state itself is a struct-of-arrays store (Store): packed
// dwell/first-read columns plus word-packed per-reader seen
// bitmaps, with no per-tag heap objects at all.
package scenario

import (
	"fmt"
	"math"

	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/stats"
)

// Spec configures one streaming warehouse run. The zero value of every
// omitted field takes the documented default, mirroring the paper's
// Table V arena where one exists.
type Spec struct {
	// Name labels the run in reports and the service index.
	Name string `json:"name,omitempty"`

	// SideMetres is the square arena side (default 100, Table V).
	SideMetres float64 `json:"side_metres,omitempty"`
	// Readers is the reader count, placed on a regular grid; it must be
	// a perfect square (default 100, Table V).
	Readers int `json:"readers,omitempty"`
	// ReadRangeMetres is the identification range (default 3, Table V).
	ReadRangeMetres float64 `json:"read_range_metres,omitempty"`
	// InterferenceRadiusMetres is the reader-reader interference radius
	// that the colouring must separate (default 10: carriers reach well
	// past the read range).
	InterferenceRadiusMetres float64 `json:"interference_radius_metres,omitempty"`

	// ArrivalsPerSecond is the Poisson arrival rate λ of the tag flow.
	ArrivalsPerSecond float64 `json:"arrivals_per_second"`
	// DwellMicros is the mean contact window before a tag leaves.
	DwellMicros float64 `json:"dwell_micros"`
	// ExponentialDwell draws dwell Exp(DwellMicros) instead of the
	// deterministic window (a free-moving crowd vs a fixed-speed belt).
	ExponentialDwell bool `json:"exponential_dwell,omitempty"`
	// DurationMicros is the simulated time span of the run.
	DurationMicros float64 `json:"duration_micros"`

	// Strength is the QCD detector strength l in bits; it sets the
	// contention-slot airtime 2l·τ (default 8).
	Strength int `json:"strength,omitempty"`
	// IDBits is the tag ID length (default 64).
	IDBits int `json:"id_bits,omitempty"`
	// TauMicros is the per-bit airtime (default 1).
	TauMicros float64 `json:"tau_micros,omitempty"`
	// SessionMicros is one colour class's activation window: every
	// reader of the class runs inventory frames until the window is
	// spent (default 5000). An epoch is Colors × SessionMicros.
	SessionMicros float64 `json:"session_micros,omitempty"`
	// NewcomerBatch bounds how many queued newcomers one discovery
	// frame admits (default 256).
	NewcomerBatch int `json:"newcomer_batch,omitempty"`
	// MaxFrame caps any single frame's slot count (default 1024).
	MaxFrame int `json:"max_frame,omitempty"`
	// PriorityWeightSize and PriorityWeightDepth weight a collision
	// context's priority, wSize·est − wDepth·depth (CSCT defaults 1 and
	// 0.001: big subsets first, shallow before deep on ties).
	PriorityWeightSize  float64 `json:"priority_weight_size,omitempty"`
	PriorityWeightDepth float64 `json:"priority_weight_depth,omitempty"`

	// Seed is the master seed; every stream (arrivals, per-reader
	// draws) derives from it deterministically.
	Seed uint64 `json:"seed,omitempty"`
	// Workers bounds the run's goroutines (0 = GOMAXPROCS): above one,
	// the arrival generator takes one and a colour class's readers fan
	// over the rest. Scheduling only: results are bit-identical for any
	// worker count.
	Workers int `json:"workers,omitempty"`
	// TickMicros is the time wheel resolution (default 256). Departures
	// are quantised to it; arrivals are exact.
	TickMicros float64 `json:"tick_micros,omitempty"`
	// EpochsPerProgress thins the progress callback/stream to one
	// report every N epochs (default 1: every epoch).
	EpochsPerProgress int `json:"epochs_per_progress,omitempty"`
}

// WithDefaults returns the spec with every zero field defaulted.
func (s Spec) WithDefaults() Spec {
	if s.SideMetres == 0 {
		s.SideMetres = 100
	}
	if s.Readers == 0 {
		s.Readers = 100
	}
	if s.ReadRangeMetres == 0 {
		s.ReadRangeMetres = 3
	}
	if s.InterferenceRadiusMetres == 0 {
		s.InterferenceRadiusMetres = 10
	}
	if s.Strength == 0 {
		s.Strength = 8
	}
	if s.IDBits == 0 {
		s.IDBits = 64
	}
	if s.TauMicros == 0 {
		s.TauMicros = 1
	}
	if s.SessionMicros == 0 {
		s.SessionMicros = 5000
	}
	if s.NewcomerBatch == 0 {
		s.NewcomerBatch = 256
	}
	if s.MaxFrame == 0 {
		s.MaxFrame = 1024
	}
	if s.PriorityWeightSize == 0 {
		s.PriorityWeightSize = 1
	}
	if s.PriorityWeightDepth == 0 {
		s.PriorityWeightDepth = 0.001
	}
	if s.TickMicros == 0 {
		s.TickMicros = 256
	}
	if s.EpochsPerProgress == 0 {
		s.EpochsPerProgress = 1
	}
	return s
}

// MaxCoverCells is the ceiling on the engine's coverage grid, which
// holds one reader list per square cell of side ReadRangeMetres:
// ceil(SideMetres/ReadRangeMetres)² cells. It admits a side of 1024
// read ranges; Table V's 100 m arena at 3 m needs 34² = 1156 cells.
const MaxCoverCells = 1 << 20

// Validate reports spec errors. It validates the defaulted form, so a
// zero-flow spec fails but omitted geometry does not.
func (s Spec) Validate() error {
	s = s.WithDefaults()
	if s.SideMetres <= 0 {
		return fmt.Errorf("scenario: side %v must be positive", s.SideMetres)
	}
	k := int(math.Round(math.Sqrt(float64(s.Readers))))
	if s.Readers < 1 || k*k != s.Readers {
		return fmt.Errorf("scenario: %d readers do not form a square grid", s.Readers)
	}
	if s.ReadRangeMetres <= 0 {
		return fmt.Errorf("scenario: read range %v must be positive", s.ReadRangeMetres)
	}
	if g := math.Ceil(s.SideMetres / s.ReadRangeMetres); g*g > MaxCoverCells {
		return fmt.Errorf("scenario: side %v over read range %v needs %.0f coverage cells, over the %d-cell ceiling",
			s.SideMetres, s.ReadRangeMetres, g*g, MaxCoverCells)
	}
	if s.InterferenceRadiusMetres < 0 {
		return fmt.Errorf("scenario: negative interference radius %v", s.InterferenceRadiusMetres)
	}
	if s.ArrivalsPerSecond <= 0 {
		return fmt.Errorf("scenario: arrivals_per_second %v must be positive", s.ArrivalsPerSecond)
	}
	if s.DwellMicros <= 0 {
		return fmt.Errorf("scenario: dwell_micros %v must be positive", s.DwellMicros)
	}
	if s.DurationMicros <= 0 {
		return fmt.Errorf("scenario: duration_micros %v must be positive", s.DurationMicros)
	}
	if s.Strength < 1 || s.Strength > 64 {
		return fmt.Errorf("scenario: QCD strength %d out of [1,64]", s.Strength)
	}
	if s.IDBits < 1 || s.IDBits > sim.MaxIDBits {
		return fmt.Errorf("scenario: id_bits %d out of [1,%d]", s.IDBits, sim.MaxIDBits)
	}
	if s.SessionMicros <= 0 {
		return fmt.Errorf("scenario: session_micros %v must be positive", s.SessionMicros)
	}
	if s.MaxFrame < 2 {
		return fmt.Errorf("scenario: max_frame %d must be at least 2", s.MaxFrame)
	}
	if s.NewcomerBatch < 1 {
		return fmt.Errorf("scenario: newcomer_batch %d must be at least 1", s.NewcomerBatch)
	}
	if s.TickMicros <= 0 {
		return fmt.Errorf("scenario: tick_micros %v must be positive", s.TickMicros)
	}
	return nil
}

// Result summarises one completed (or cancelled-partial) run. All
// tallies are deterministic in the spec: bit-identical for any Workers.
type Result struct {
	Spec Spec `json:"spec"`

	// Colors is the interference-colouring class count; an epoch is
	// Colors activation windows.
	Colors int `json:"colors"`
	// Epochs counts completed scheduling epochs.
	Epochs int `json:"epochs"`
	// SimMicros is the simulated time actually covered.
	SimMicros float64 `json:"sim_micros"`

	// Arrived counts tags that entered the arena; Covered those within
	// at least one reader's range (only they can ever be read).
	Arrived int64 `json:"arrived"`
	Covered int64 `json:"covered"`
	// Read counts covered tags first-read before leaving; Missed counts
	// covered tags that left (or remained at the end) unread.
	Read   int64 `json:"read"`
	Missed int64 `json:"missed"`

	// Latency accumulates first-read latency (read − arrival, μs) over
	// every read tag.
	Latency stats.Accumulator `json:"-"`
	// LatencyMeanMicros, LatencyMaxMicros mirror the accumulator for
	// the JSON encoding.
	LatencyMeanMicros float64 `json:"latency_mean_micros"`
	LatencyMaxMicros  float64 `json:"latency_max_micros"`

	// Census totals the slot outcomes over every reader session, and
	// AirtimeMicros their summed airtime.
	Census        metrics.Census `json:"census"`
	AirtimeMicros float64        `json:"airtime_micros"`

	// PeakLive is the largest concurrent field population observed at
	// an epoch boundary.
	PeakLive int `json:"peak_live"`
}

// MissRate returns Missed over covered arrivals (0 when none).
func (r *Result) MissRate() float64 {
	if r.Read+r.Missed == 0 {
		return 0
	}
	return float64(r.Missed) / float64(r.Read+r.Missed)
}

// Progress is one epoch's snapshot, delivered to Options.OnEpoch and
// streamed by the service as SSE "epoch" events.
type Progress struct {
	Epoch     int     `json:"epoch"`
	SimMicros float64 `json:"sim_micros"`
	Live      int     `json:"live"`

	// Cumulative tallies as of this epoch's end.
	Arrived int64 `json:"arrived"`
	Read    int64 `json:"read"`
	Missed  int64 `json:"missed"`

	// EpochReads counts first reads during this epoch, and
	// EpochMeanLatencyMicros their mean first-read latency.
	EpochReads             int64   `json:"epoch_reads"`
	EpochMeanLatencyMicros float64 `json:"epoch_mean_latency_micros"`
	// ReadsPerSecond is EpochReads over the epoch's simulated span.
	ReadsPerSecond float64 `json:"reads_per_second"`
	// MissRate is the cumulative miss rate over departed covered tags.
	MissRate float64 `json:"miss_rate"`
}
