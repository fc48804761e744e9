// Package metrics accumulates and derives the paper's evaluation
// quantities: slot censuses and throughput λ (Lemmas 1–2, Tables VII and
// VIII), collision-detection accuracy (Figure 5), utilisation rate UR
// (Table IX), per-tag identification delay (Figure 6), transmission time
// (Figure 7), and efficiency improvement EI (Tables II–III, Figure 8).
//
// A Session's delay log has one writer, Session.AddDelay, which appends
// to DelaysMicros and folds the same value into the session's Welford
// accumulator, so consumers read DelayFold instead of walking the log
// again. Record, Merge and the stat engines all write through it.
package metrics

import (
	"repro/internal/air"
	"repro/internal/signal"
	"repro/internal/stats"
)

// Census counts slots by ground-truth type plus the frame count; these are
// the columns of Tables VII and VIII.
type Census struct {
	Idle     int64 // N0
	Single   int64 // N1
	Collided int64 // Nc
	Frames   int64
}

// Slots returns the total slot count N0+N1+Nc.
func (c Census) Slots() int64 { return c.Idle + c.Single + c.Collided }

// Throughput returns λ = N1 / (N0+N1+Nc), zero for an empty census.
func (c Census) Throughput() float64 {
	if s := c.Slots(); s > 0 {
		return float64(c.Single) / float64(s)
	}
	return 0
}

// Add accumulates another census (used when averaging rounds or merging
// per-reader sessions).
func (c *Census) Add(o Census) {
	c.Idle += o.Idle
	c.Single += o.Single
	c.Collided += o.Collided
	c.Frames += o.Frames
}

// Detection tallies the detector's classification quality (Figure 5).
type Detection struct {
	TrueCollided     int64 // slots whose ground truth was collided
	DetectedCollided int64 // of those, slots the detector also declared collided
	FalseSingle      int64 // collided slots declared single (QCD same-r miss, CRC aliasing)
	Phantom          int64 // declared-single slots where no tag matched the ACK
}

// Accuracy is the paper's Figure-5 metric: correctly detected collided
// slots over all collided slots (n'_c / n_c). With no collisions observed
// it is 1 by convention.
func (d Detection) Accuracy() float64 {
	if d.TrueCollided == 0 {
		return 1
	}
	return float64(d.DetectedCollided) / float64(d.TrueCollided)
}

// Add accumulates another detection tally.
func (d *Detection) Add(o Detection) {
	d.TrueCollided += o.TrueCollided
	d.DetectedCollided += o.DetectedCollided
	d.FalseSingle += o.FalseSingle
	d.Phantom += o.Phantom
}

// Session aggregates one complete identification run: every tag of a
// population identified by one reader under one algorithm + detector.
type Session struct {
	Census    Census
	Detection Detection

	// Bits is total airtime in bits as actually spent (contention phases
	// plus ID phases that the declared classification triggered).
	Bits int64

	// TimeMicros is Bits scaled by the τ of the timing model in effect.
	TimeMicros float64

	// DelaysMicros holds each identified tag's identification delay, the
	// Figure-6 metric: time from session start to the tag's ACK, in
	// identification order. Write it only through AddDelay.
	DelaysMicros []float64

	// TagsIdentified counts acknowledged tags (equals the population size
	// when the session ran to completion).
	TagsIdentified int64

	delay stats.Accumulator // the Welford fold of DelaysMicros, in order

	keepLog bool
	slotLog []SlotRecord

	frameHook func(FrameInfo)
	prevFrame Census // census snapshot at the last frame boundary
}

// Reset clears the session for reuse by a new identification run,
// retaining the capacity of the delay and slot-log slices so a pooled
// session allocates its working set once per worker instead of once per
// round. Hooks, the slot-log toggle and the delay fold are cleared too;
// the engine re-installs the hooks from its options.
func (s *Session) Reset() {
	*s = Session{
		DelaysMicros: s.DelaysMicros[:0],
		slotLog:      s.slotLog[:0],
	}
}

// Merge folds src into s: counts and airtime sum, and src's delays
// are added in order, shifted by offsetMicros. A follow-up round whose
// clock started at zero passes s's end time; an aggregate of
// independent rounds passes 0. It must cover every exported Session
// field — the reflection test TestMergeSessionCoversEveryField fails on
// a new field that is not merged here (DelaysMicros was silently
// dropped once).
func (s *Session) Merge(src *Session, offsetMicros float64) {
	s.Census.Add(src.Census)
	s.Detection.Add(src.Detection)
	s.Bits += src.Bits
	s.TimeMicros += src.TimeMicros
	for _, d := range src.DelaysMicros {
		s.AddDelay(offsetMicros + d)
	}
	s.TagsIdentified += src.TagsIdentified
}

// AddDelay records one identified tag's delay: it appends d to
// DelaysMicros and folds it into the session's delay accumulator. It is
// the one writer of both, so DelayFold always equals a fresh
// stats.Accumulator.AddAll over DelaysMicros, bit for bit.
func (s *Session) AddDelay(d float64) {
	s.DelaysMicros = append(s.DelaysMicros, d)
	s.delay.Add(d)
}

// DelayFold returns the Welford fold of DelaysMicros, built as each
// delay was recorded.
func (s *Session) DelayFold() stats.Accumulator { return s.delay }

// FrameInfo summarises one completed frame: its census delta and the
// simulated time at which it ended. Delivered to the hook installed
// with SetFrameHook.
type FrameInfo struct {
	Index                  int // 0-based frame ordinal
	Size                   int // announced slot count
	Idle, Single, Collided int64
	EndMicros              float64
}

// SetFrameHook registers fn to be called at every frame boundary the
// algorithm reports via EndFrame. Install it before the run; a nil fn
// disables the hook.
func (s *Session) SetFrameHook(fn func(FrameInfo)) { s.frameHook = fn }

// EndFrame marks a frame boundary: it increments the frame census and,
// when a hook is installed, delivers this frame's census delta. With no
// hook it is exactly Census.Frames++.
func (s *Session) EndFrame(size int) {
	s.Census.Frames++
	if s.frameHook == nil {
		return
	}
	fi := FrameInfo{
		Index:     int(s.Census.Frames) - 1,
		Size:      size,
		Idle:      s.Census.Idle - s.prevFrame.Idle,
		Single:    s.Census.Single - s.prevFrame.Single,
		Collided:  s.Census.Collided - s.prevFrame.Collided,
		EndMicros: s.TimeMicros,
	}
	s.prevFrame = s.Census
	s.frameHook(fi)
}

// Record folds one slot outcome into the session.
func (s *Session) Record(o air.Outcome, endMicros float64) {
	switch o.Truth {
	case signal.Idle:
		s.Census.Idle++
	case signal.Single:
		s.Census.Single++
	case signal.Collided:
		s.Census.Collided++
		s.Detection.TrueCollided++
		if o.Declared == signal.Collided {
			s.Detection.DetectedCollided++
		} else if o.Declared == signal.Single {
			s.Detection.FalseSingle++
		}
	}
	if o.Phantom {
		s.Detection.Phantom++
	}
	s.Bits += int64(o.Bits)
	s.TimeMicros = endMicros
	if o.Identified != nil {
		s.TagsIdentified++
		s.AddDelay(o.Identified.IdentifiedAtMicros)
	}
	if s.keepLog {
		s.slotLog = append(s.slotLog, SlotRecord{
			Truth: o.Truth, Declared: o.Declared,
			Bits: int32(o.Bits), Identified: o.Identified != nil,
		})
	}
}

// UR is the utilisation rate of Table IX: the fraction of airtime spent on
// successfully transmitted IDs,
//
//	UR = N1·l_id / (N1·(l_prm+l_id) + (Nc+N0)·l_prm)
//
// generalised here to measured airtime: identified-ID bits over all bits.
func (s Session) UR(idBits int) float64 {
	if s.Bits == 0 {
		return 0
	}
	return float64(s.TagsIdentified*int64(idBits)) / float64(s.Bits)
}

// EI returns the efficiency improvement of this session over a baseline
// session on the same workload: (t_base − t_this) / t_base (Section V).
func EI(baseline, improved Session) float64 {
	if baseline.TimeMicros == 0 {
		return 0
	}
	return (baseline.TimeMicros - improved.TimeMicros) / baseline.TimeMicros
}
