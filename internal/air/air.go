// Package air executes the over-the-air protocol of a single slot: the
// contention phase, the reader's classification, the optional ID phase,
// and the acknowledgement rule that decides whether a tag was identified.
//
// Every anti-collision engine (FSA, BT, QT) reduces to "choose who
// responds in this slot"; the slot mechanics themselves are shared and
// live here so that any detector plugs into any algorithm — the paper's
// "seamlessly adopted by current anti-collision algorithms" property.
//
// # Slot paths and the allocation invariant
//
// The slot exchange is written once. RunSlot, RunSlotImpaired and
// RunSlotInterfered all run each slot on one of two paths, chosen per
// detector and channel, not per slot (SlotScratch caches the detector
// half of the choice for the detector it last saw):
//
//   - The word kernel (kernel.go) takes the ideal-channel slots of
//     *detect.QCD, *detect.CRCCD over byte-multiple IDs of at most 64
//     bits, and *detect.Oracle, when every responder's ID has the
//     detector's length. The channel is ideal when no active Impairment
//     and no Interferer is on it. Each phase is a uint64 OR per
//     responder and classification a word compare; no payload, channel
//     or detector interface call is involved.
//   - The generic path takes everything else. It builds each contention
//     payload with detect.Detector.ContentionPayload, the detector's one
//     payload method, in the SlotScratch's payload buffer, overlaps it
//     on a reusable signal.Channel and asks the detector to classify.
//     What rides it: impaired channels (an active Impairment's capture
//     draw and bit errors), QT blocked slots (qtree's Blocker as an
//     Interferer), Gen-2 detector replies (gen2 adds its ACK bookkeeping
//     around RunSlot), IDs longer than 64 bits or not a whole number of
//     bytes under CRC-CD, a responder whose ID length differs from the
//     detector's, and any other Detector, including a wrapper that embeds
//     one of the three (sim's audited detector, which needs the
//     overlapped preamble for its exemplars).
//
// Both paths produce the same Outcome, BitsSent, IdentifiedAtMicros and
// PRNG draws for any slot both can run; the differential test and
// FuzzSlotKernel pin that, inert impairments included. Neither allocates
// over the ideal channel: the kernel never touches the heap, and the
// generic path reaches zero once a reused SlotScratch owns its buffers.
// Every detector builds its payload in the scratch it is handed, and a
// wrapper inherits that method by embedding; the payload is valid only
// until the next call, and the channel copies it on Transmit. The
// allocation-guard test pins RunSlot at 0 allocs/op for QCD, CRC-CD and
// the oracle with a fresh scratch; keep it green when touching either
// path.
package air

import (
	"repro/internal/bitstr"
	"repro/internal/detect"
	"repro/internal/signal"
	"repro/internal/tagmodel"
)

// Outcome describes what happened in one slot.
type Outcome struct {
	// Truth is the ground-truth slot type (from the responder count).
	Truth signal.SlotType
	// Declared is the detector's classification.
	Declared signal.SlotType
	// Identified is the tag whose ID the reader successfully acknowledged,
	// or nil. A tag can be identified only in a slot declared single.
	Identified *tagmodel.Tag
	// Phantom is true when the slot was declared single but the extracted
	// ID matched no responder (a garbled acknowledgement): airtime was
	// spent, nobody was identified, and the responders re-arbitrate.
	Phantom bool
	// Bits is the total airtime of the slot in bits, as actually spent:
	// contention, plus the ID phase if the detector declared single and
	// uses a separate ID transmission.
	Bits int
}

// SlotScratch holds the per-slot working state — the bound word kernel,
// the two phase channels and a payload assembly buffer — so that an
// engine can run an entire inventory round without per-slot allocation.
// The zero value is ready to use; allocate one per round (or per engine
// session) and pass it to RunSlot. A SlotScratch must not be shared
// between concurrently running rounds.
type SlotScratch struct {
	kernel     wordKernel
	contention signal.Channel
	idPhase    signal.Channel
	payload    bitstr.BitString
}

// RunSlot executes one slot in which the given tags respond under det,
// reusing sc's channels and buffers. nowMicros is the simulation time at
// the start of the slot and tauMicros the per-bit airtime; an identified
// tag is stamped with the slot's end time. Responders must be unidentified
// tags; the engine guarantees this.
func (sc *SlotScratch) RunSlot(det detect.Detector, responders []*tagmodel.Tag, nowMicros, tauMicros float64) (out Outcome) {
	sc.runSlot(&out, det, responders, nil, nil, nowMicros, tauMicros)
	return out
}

// Interferer is a transmitter on the air that is not a tag, such as a
// blocker tag: given a phase's length in bits, it returns the burst it
// sends in that phase. It transmits after the tags in both phases and
// counts as one more responder toward the slot's ground truth.
type Interferer func(bits int) bitstr.BitString

// RunSlotInterfered is RunSlot with jam transmitting on the air beside
// the responders; a nil jam is RunSlot. Such a slot always takes the
// generic path.
func (sc *SlotScratch) RunSlotInterfered(det detect.Detector, responders []*tagmodel.Tag, jam Interferer, nowMicros, tauMicros float64) (out Outcome) {
	sc.runSlot(&out, det, responders, nil, jam, nowMicros, tauMicros)
	return out
}

// runSlot is the one slot entry, writing into *out. Outcome has more
// fields than the compiler keeps in registers, so each wrapper that
// returned it by value would add a block copy to every slot; filling the
// caller's result in place avoids them. The word kernel takes the slot
// when the channel is ideal (no active impairment, no interferer) and
// the responders fit det's kernel; the generic path takes the rest.
func (sc *SlotScratch) runSlot(out *Outcome, det detect.Detector, responders []*tagmodel.Tag, im *Impairment, jam Interferer, nowMicros, tauMicros float64) {
	if im.active() || jam != nil {
		sc.runGeneric(out, det, responders, im, jam, nowMicros, tauMicros)
		return
	}
	if k := sc.kernelFor(det); k != nil && k.fits(responders) {
		k.run(out, responders, nowMicros, tauMicros)
		return
	}
	// An inactive impairment is the ideal channel.
	sc.runGeneric(out, det, responders, nil, nil, nowMicros, tauMicros)
}

// runGeneric is the generic path, the slot exchange written out:
// payloads overlapped on the scratch channels and classified by det.
// The channel is im, or ideal when im is nil (the capture draw and
// corrupt then draw nothing and change nothing), with jam, if non-nil,
// transmitting after the tags in each phase.
func (sc *SlotScratch) runGeneric(out *Outcome, det detect.Detector, responders []*tagmodel.Tag, im *Impairment, jam Interferer, nowMicros, tauMicros float64) {
	senders := len(responders)
	if jam != nil {
		senders++
	}
	*out = Outcome{Truth: signal.Classify(senders)}
	captured := im.capture(len(responders))

	ch := &sc.contention
	ch.Reset()
	for i, t := range responders {
		sc.payload = det.ContentionPayload(t, sc.payload)
		t.BitsSent += int64(sc.payload.Len())
		if captured < 0 || i == captured {
			ch.Transmit(sc.payload)
		}
	}
	contention := receive(ch, det.ContentionBits(), senders, im, jam)
	out.Declared = det.Classify(contention)
	out.Bits = det.ContentionBits()
	if out.Declared != signal.Single {
		return
	}

	// The reader believes exactly one tag responded. Run the ID phase if
	// the scheme defers the ID (IDPhaseBits > 0), then acknowledge the
	// extracted ID; only a tag whose ID matches the acknowledgement
	// byte-for-byte considers itself identified (EPC Gen-2 ACK
	// semantics), so a misdetected collision usually wastes the slot
	// rather than corrupting state.
	var idPhase signal.Reception
	if idBits := det.IDPhaseBits(); idBits > 0 {
		out.Bits += idBits
		idCh := &sc.idPhase
		idCh.Reset()
		for i, t := range responders {
			t.BitsSent += int64(t.ID.Len())
			if captured < 0 || i == captured {
				idCh.Transmit(t.ID)
			}
		}
		idPhase = receive(idCh, idBits, senders, im, jam)
	}

	acked, ok := det.ExtractID(contention, idPhase)
	if ok {
		out.Identified = matchResponder(responders, acked)
	}
	if out.Identified != nil {
		out.Identified.Identified = true
		out.Identified.IdentifiedAtMicros = nowMicros + float64(out.Bits)*tauMicros
	} else {
		out.Phantom = true
	}
}

// receive ends a phase of the given length: jam transmits, the reader
// hears the channel, and noise corrupts what it hears. Responders stays
// the ground-truth count of senders, which a capture does not change.
func receive(ch *signal.Channel, bits, senders int, im *Impairment, jam Interferer) signal.Reception {
	if jam != nil {
		ch.Transmit(jam(bits))
	}
	rx := ch.Receive()
	rx.Responders = senders
	rx.Signal = im.corrupt(rx.Signal)
	return rx
}

// RunSlot executes one slot with freshly zeroed scratch state. It is the
// convenience form of SlotScratch.RunSlot for callers outside the hot
// loop; engines iterating over frames should hold a SlotScratch instead so
// channel buffers persist across slots.
func RunSlot(det detect.Detector, responders []*tagmodel.Tag, nowMicros, tauMicros float64) (out Outcome) {
	var sc SlotScratch
	sc.runSlot(&out, det, responders, nil, nil, nowMicros, tauMicros)
	return out
}

func matchResponder(responders []*tagmodel.Tag, acked bitstr.BitString) *tagmodel.Tag {
	for _, t := range responders {
		if t.ID.Equal(acked) {
			return t
		}
	}
	return nil
}
