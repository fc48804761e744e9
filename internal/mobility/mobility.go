// Package mobility models the dynamic tag environment of the paper's
// Section VI-D: "the tag may move out of the reader's range before it is
// identified by the reader if the identification is slow."
//
// Tags arrive in the reader's field as a Poisson process, dwell for a
// deterministic or exponential contact window, and leave whether or not
// they were read. The reader runs back-to-back inventory rounds; the key
// metric is the miss rate — the fraction of tags that left unread — as a
// function of the detection scheme's speed. This is the operational
// consequence of Figure 6's delay reduction, and the natural home of the
// ABS protocol (stable tags are re-read collision-free between rounds).
package mobility

import (
	"fmt"

	"repro/internal/bitstr"
	"repro/internal/btree"
	"repro/internal/detect"
	"repro/internal/metrics"
	"repro/internal/prng"
	"repro/internal/tagmodel"
	"repro/internal/timing"
)

// Arrivals configures the tag flow through the field.
type Arrivals struct {
	// RatePerSecond is the mean tag arrival rate λ of the Poisson process.
	RatePerSecond float64
	// DwellMicros is the mean contact window.
	DwellMicros float64
	// ExponentialDwell draws dwell times Exp(DwellMicros) instead of the
	// deterministic window (a free-moving crowd vs a fixed-speed belt).
	ExponentialDwell bool
	// IDBits is the tag ID length (default 64).
	IDBits int
}

func (a Arrivals) validate() {
	if a.RatePerSecond <= 0 || a.DwellMicros <= 0 {
		panic(fmt.Sprintf("mobility: non-positive arrivals %+v", a))
	}
}

func (a Arrivals) idBits() int {
	if a.IDBits == 0 {
		return 64
	}
	return a.IDBits
}

// Result summarises a mobile-environment run.
type Result struct {
	// Arrived counts tags that entered the field during the simulation.
	Arrived int
	// Read counts tags identified before they left.
	Read int
	// Missed counts tags whose dwell expired unread.
	Missed int
	// Rounds is the number of inventory rounds executed.
	Rounds int
	// Session accumulates the air metrics of all rounds.
	Session metrics.Session
	// MeanFieldSize is the time-averaged number of tags in the field,
	// sampled at round starts.
	MeanFieldSize float64
}

// MissRate returns Missed / Arrived (0 when nothing arrived).
func (r Result) MissRate() float64 {
	if r.Arrived == 0 {
		return 0
	}
	return float64(r.Missed) / float64(r.Arrived)
}

// Protocol selects the inventory algorithm for the mobile run.
type Protocol int

// Protocols.
const (
	// ProtoBT runs an independent binary-tree round each time.
	ProtoBT Protocol = iota
	// ProtoABS runs adaptive binary splitting: tags keep their slot order
	// between rounds, so only newcomers cause collisions.
	ProtoABS
)

func (p Protocol) String() string {
	switch p {
	case ProtoBT:
		return "BT"
	case ProtoABS:
		return "ABS"
	default:
		return fmt.Sprintf("Protocol(%d)", int(p))
	}
}

// mobileTag wraps a tag with its lifetime.
type mobileTag struct {
	tag     *tagmodel.Tag
	leaveAt float64 // μs
	wasRead bool
}

// Run simulates the mobile field for durationMicros under the given
// protocol and detector. The reader executes inventory rounds back to
// back; between rounds, arrivals and departures are applied at the
// current clock.
func Run(proto Protocol, det detect.Detector, arr Arrivals, durationMicros float64, seed uint64) Result {
	arr.validate()
	rng := prng.New(seed)
	tm := timing.Default

	var res Result
	now := 0.0
	nextArrival := now + rng.Exp(1e6/arr.RatePerSecond)
	var field []*mobileTag
	// Word-sized IDs dedup on the raw integer, longer ones on their key
	// string, built once per draw.
	seenWord := make(map[uint64]bool)
	seenKey := make(map[string]bool)
	nextIndex := 0

	admit := func(at float64) {
		// Draw a unique ID for the newcomer.
		var id bitstr.BitString
		for {
			w := rng.Bits(min64(arr.idBits()))
			id = bitstr.FromUint64(w, min64(arr.idBits()))
			if arr.idBits() <= 64 {
				if !seenWord[w] {
					seenWord[w] = true
					break
				}
				continue
			}
			for id.Len() < arr.idBits() {
				id = bitstr.Concat(id, bitstr.FromUint64(rng.Bits(1), 1))
			}
			if k := id.Key(); !seenKey[k] {
				seenKey[k] = true
				break
			}
		}
		t := tagmodel.New(nextIndex, id, rng.Split())
		nextIndex++
		dwell := arr.DwellMicros
		if arr.ExponentialDwell {
			dwell = rng.Exp(arr.DwellMicros)
		}
		mt := &mobileTag{tag: t, leaveAt: at + dwell}
		if proto == ProtoABS {
			t.Slot = -1 // newcomer marker for ABS
		}
		field = append(field, mt)
		res.Arrived++
	}

	sync := func() {
		// Admit arrivals up to the clock; retire departures.
		for nextArrival <= now && now < durationMicros {
			admit(nextArrival)
			nextArrival += rng.Exp(1e6 / arr.RatePerSecond)
		}
		kept := field[:0]
		for _, mt := range field {
			if mt.leaveAt <= now {
				if mt.wasRead {
					res.Read++
				} else {
					res.Missed++
				}
				continue
			}
			kept = append(kept, mt)
		}
		field = kept
	}

	fieldSizeSum := 0.0
	var bt btree.Reuse // every reader round's working set
	for now < durationMicros {
		sync()
		if len(field) == 0 {
			// Idle-wait to the next arrival (or the end).
			if nextArrival >= durationMicros {
				break
			}
			now = nextArrival
			continue
		}
		res.Rounds++
		fieldSizeSum += float64(len(field))

		pop := make(tagmodel.Population, len(field))
		for i, mt := range field {
			pop[i] = mt.tag
			mt.tag.Identified = false
		}
		var s *metrics.Session
		if proto == ProtoABS {
			s = bt.RunABS(pop, det, tm)
		} else {
			pop.Reset()
			s = bt.Run(pop, det, tm)
		}
		// Credit reads that happened before each tag's departure.
		for _, mt := range field {
			if mt.tag.Identified && now+mt.tag.IdentifiedAtMicros <= mt.leaveAt {
				mt.wasRead = true
			}
		}
		res.Session.Merge(s, 0)
		now += s.TimeMicros
	}
	// Drain: anything still in the field counts by its read status.
	for _, mt := range field {
		if mt.wasRead {
			res.Read++
		} else {
			res.Missed++
		}
	}
	if res.Rounds > 0 {
		res.MeanFieldSize = fieldSizeSum / float64(res.Rounds)
	}
	return res
}

func min64(n int) int {
	if n > 64 {
		return 64
	}
	return n
}
