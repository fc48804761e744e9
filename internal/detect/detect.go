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
	// phase of a slot, drawing from t.Rng whatever the scheme needs. It
	// builds the payload in scratch and returns it, never a buffer of its
	// own: the caller passes each return value back as the next scratch,
	// so a payload is valid only until the next call. Scratch travels by
	// value so the call never forces the caller's slot state onto the
	// heap; the zero BitString is a valid scratch.
	ContentionPayload(t *tagmodel.Tag, scratch bitstr.BitString) bitstr.BitString

	// Classify decides the slot type from the overlapped contention
	// signal. Implementations other than the oracle must not read
	// rx.Responders.
	Classify(rx signal.Reception) signal.SlotType

	// ContentionBits is the airtime, in bits, of the contention phase.
	// The reader must budget it for every slot, including idle ones.
	ContentionBits() int

	// IDPhaseBits is the airtime of the separate ID transmission that
	// follows a slot classified single, or 0 when the scheme has none
	// (CRC-CD, where the ID rode along in the contention phase).
	IDPhaseBits() int

	// ExtractID recovers the acknowledged ID from a slot declared single:
	// for CRC-CD it is embedded in the contention signal; for QCD the
	// caller supplies the ID-phase reception. ok is false when the signal
	// cannot possibly carry an ID of the right length.
	ExtractID(contention, idPhase signal.Reception) (id bitstr.BitString, ok bool)
}

// SlotBits returns the total airtime in bits of a slot classified as
// typ under detector d. This is the quantity the paper's timing analysis
// integrates: CRC-CD pays ContentionBits for every slot type, QCD pays
// 2·l for idle/collided slots and 2·l + l_id for single slots.
func SlotBits(d Detector, typ signal.SlotType) int {
	bits := d.ContentionBits()
	if typ == signal.Single {
		bits += d.IDPhaseBits()
	}
	return bits
}

func checkIDBits(idBits int) {
	if idBits < 1 {
		panic(fmt.Sprintf("detect: idBits %d must be positive", idBits))
	}
}
