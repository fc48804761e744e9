// Package detect implements the paper's collision detection schemes.
//
// A collision detector decides, from the overlapped signal of one slot,
// whether zero, one, or more than one tag responded. The paper's baseline
// is CRC-CD (every tag transmits ID || crc(ID); the reader recomputes the
// CRC over the overlapped signal). The contribution is QCD — Quick
// Collision Detection — in which each tag transmits a short collision
// preamble r || f(r) with f(r) = r̄ (bitwise complement, Theorem 1), and
// only a tag in a slot the reader declares single goes on to transmit its
// ID. Idle and collided slots therefore carry 2·l bits instead of
// l_id + l_crc bits, and the tag-side checksum costs one instruction
// instead of an O(l) CRC.
//
// Detectors are pure per-slot deciders; the anti-collision engines
// (internal/aloha, internal/btree, internal/qtree) own the scheduling.
package detect

import (
	"fmt"

	"repro/internal/bitstr"
	"repro/internal/signal"
	"repro/internal/tagmodel"
)

// Detector is a collision detection scheme, pluggable into any
// anti-collision algorithm (the paper's "no modification on upper-level
// air protocols" property).
type Detector interface {
	// Name identifies the scheme in reports.
	Name() string

	// ContentionPayload returns the bits tag t transmits in the contention
	// phase of a slot. It may consume randomness from t.Rng.
	ContentionPayload(t *tagmodel.Tag) bitstr.BitString

	// Classify decides the slot type from the overlapped contention
	// signal. Implementations other than the oracle must not read
	// rx.Responders.
	Classify(rx signal.Reception) signal.SlotType

	// ContentionBits is the airtime, in bits, of the contention phase.
	// The reader must budget it for every slot, including idle ones.
	ContentionBits() int

	// NeedsIDPhase reports whether a slot classified single is followed by
	// a separate ID transmission (true for QCD, false for CRC-CD where the
	// ID rode along in the contention phase).
	NeedsIDPhase() bool

	// IDPhaseBits is the airtime of that ID transmission.
	IDPhaseBits() int

	// ExtractID recovers the acknowledged ID from a slot declared single:
	// for CRC-CD it is embedded in the contention signal; for QCD the
	// caller supplies the ID-phase reception. ok is false when the signal
	// cannot possibly carry an ID of the right length.
	ExtractID(contention, idPhase signal.Reception) (id bitstr.BitString, ok bool)
}

// ScratchPayloader is an optional extension of Detector for the generic
// slot path of internal/air. That path runs every slot the word kernel
// does not: impaired channels, slots with an interferer on the air (QT's
// blocker), IDs longer than 64 bits (or, under CRC-CD, not a whole
// number of bytes), responders whose ID length differs from the
// detector's, and any Detector other than *QCD, *CRCCD and *Oracle —
// wrappers that embed one of those included. The word kernel never calls
// a payload method; it overlaps the three built-in schemes as machine
// words instead. ContentionPayloadInto behaves exactly like
// ContentionPayload — same bits, same draws from t.Rng — but may reuse
// scratch's backing storage to build the payload. The caller passes the
// previous return value back in as scratch on the next call; the payload
// is only valid until then, so the slot engine copies it into the channel
// before reuse. Scratch travels by value (not by pointer) so that this
// interface call never forces the caller's slot state onto the heap.
// Wrappers that decorate a Detector should forward this interface so the
// generic path stays allocation-free under instrumentation.
type ScratchPayloader interface {
	ContentionPayloadInto(t *tagmodel.Tag, scratch bitstr.BitString) bitstr.BitString
}

// PayloadInto dispatches to ContentionPayloadInto when d implements
// ScratchPayloader, threading *scratch through it, and falls back to
// ContentionPayload otherwise.
func PayloadInto(d Detector, t *tagmodel.Tag, scratch *bitstr.BitString) bitstr.BitString {
	if sp, ok := d.(ScratchPayloader); ok {
		*scratch = sp.ContentionPayloadInto(t, *scratch)
		return *scratch
	}
	return d.ContentionPayload(t)
}

// SlotBits returns the total airtime in bits of a slot classified as
// typ under detector d. This is the quantity the paper's timing analysis
// integrates: CRC-CD pays ContentionBits for every slot type, QCD pays
// 2·l for idle/collided slots and 2·l + l_id for single slots.
func SlotBits(d Detector, typ signal.SlotType) int {
	bits := d.ContentionBits()
	if typ == signal.Single && d.NeedsIDPhase() {
		bits += d.IDPhaseBits()
	}
	return bits
}

func checkIDBits(idBits int) {
	if idBits < 1 {
		panic(fmt.Sprintf("detect: idBits %d must be positive", idBits))
	}
}
