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
// RunSlot runs every slot on one of two paths, chosen per detector, not
// per slot (SlotScratch caches the choice for the detector it last saw):
//
//   - The word kernel (kernel.go) takes the ideal-channel slots of
//     *detect.QCD, *detect.CRCCD over byte-multiple IDs of at most 64
//     bits, and *detect.Oracle, when every responder's ID has the
//     detector's length. Each phase is a uint64 OR per responder and
//     classification a word compare; no payload, channel or detector
//     interface call is involved.
//   - The generic path takes everything else: impaired channels (the
//     active path of RunSlotImpaired), IDs longer than 64 bits or not a
//     whole number of bytes under CRC-CD, a responder whose ID length
//     differs from the detector's, and any other Detector, including a
//     wrapper that embeds one of the three (rfidd's timed and audited
//     detectors). It builds each contention payload (see
//     detect.ScratchPayloader), overlaps it on a reusable signal.Channel
//     and asks the detector to classify.
//
// Both paths produce the same Outcome, BitsSent, IdentifiedAtMicros and
// PRNG draws for any slot both can run; the differential test and
// FuzzSlotKernel pin that. Neither allocates over the ideal channel: the
// kernel never touches the heap, and the generic path reaches zero once
// a reused SlotScratch owns its buffers, provided the detector (or the
// wrapper around it) implements detect.ScratchPayloader. The
// allocation-guard test pins
// RunSlot at 0 allocs/op for QCD, CRC-CD and the oracle with a fresh
// scratch; keep it green when touching either path.
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
	sc.runSlot(&out, det, responders, nowMicros, tauMicros)
	return out
}

// runSlot is RunSlot writing into *out. Outcome has more fields than the
// compiler keeps in registers, so each wrapper that returned it by value
// would add a block copy to every slot; filling the caller's result in
// place avoids them.
func (sc *SlotScratch) runSlot(out *Outcome, det detect.Detector, responders []*tagmodel.Tag, nowMicros, tauMicros float64) {
	if k := sc.kernelFor(det); k != nil && k.fits(responders) {
		k.run(out, responders, nowMicros, tauMicros)
		return
	}
	*out = sc.runGeneric(det, responders, nowMicros, tauMicros)
}

// runGeneric is RunSlot's generic path: payloads overlapped on the
// scratch channels and classified by det.
func (sc *SlotScratch) runGeneric(det detect.Detector, responders []*tagmodel.Tag, nowMicros, tauMicros float64) Outcome {
	out := Outcome{Truth: signal.Classify(len(responders))}

	ch := &sc.contention
	ch.Reset()
	for _, t := range responders {
		payload := detect.PayloadInto(det, t, &sc.payload)
		t.BitsSent += int64(payload.Len())
		ch.Transmit(payload)
	}
	contention := ch.Receive()
	out.Declared = det.Classify(contention)
	out.Bits = det.ContentionBits()

	if out.Declared != signal.Single {
		return out
	}

	// The reader believes exactly one tag responded. Run the ID phase if
	// the scheme defers the ID, then acknowledge the extracted ID; only a
	// tag whose ID matches the acknowledgement byte-for-byte considers
	// itself identified (EPC Gen-2 ACK semantics), so a misdetected
	// collision usually wastes the slot rather than corrupting state.
	var idPhase signal.Reception
	if det.NeedsIDPhase() {
		out.Bits += det.IDPhaseBits()
		idCh := &sc.idPhase
		idCh.Reset()
		for _, t := range responders {
			t.BitsSent += int64(t.ID.Len())
			idCh.Transmit(t.ID)
		}
		idPhase = idCh.Receive()
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
	return out
}

// RunSlot executes one slot with freshly zeroed scratch state. It is the
// convenience form of SlotScratch.RunSlot for callers outside the hot
// loop; engines iterating over frames should hold a SlotScratch instead so
// channel buffers persist across slots.
func RunSlot(det detect.Detector, responders []*tagmodel.Tag, nowMicros, tauMicros float64) Outcome {
	var sc SlotScratch
	return sc.RunSlot(det, responders, nowMicros, tauMicros)
}

func matchResponder(responders []*tagmodel.Tag, acked bitstr.BitString) *tagmodel.Tag {
	for _, t := range responders {
		if t.ID.Equal(acked) {
			return t
		}
	}
	return nil
}
