package detect

import (
	"fmt"
	"math"

	"repro/internal/bitstr"
	"repro/internal/signal"
	"repro/internal/tagmodel"
)

// QCD is the paper's Quick Collision Detection scheme (Section IV).
//
// Each responding tag draws a fresh random strength-bit integer r and
// transmits the collision preamble r ⊕ f(r) with f(r) = r̄. By Theorem 1,
// if at least two responders drew different integers, the overlapped
// preamble s = (∨r_i) ⊕ (∨r̄_i) fails the check c = f(r) — the complement
// of an OR is the AND of complements, not their OR — so the reader flags a
// collision. The only undetected collisions are slots where every
// responder drew the same integer, with probability 2^-(strength·(m-1)).
type QCD struct {
	strength int // bits of the random integer r ("strength of QCD")
	idBits   int // bits of the tag ID sent in the follow-up phase
}

// NewQCD returns a QCD detector with the given strength (the paper
// recommends 8) for IDs of idBits bits (the paper uses 64).
func NewQCD(strength, idBits int) *QCD {
	if strength < 1 || strength > 64 {
		panic(fmt.Sprintf("detect: QCD strength %d out of range [1,64]", strength))
	}
	checkIDBits(idBits)
	return &QCD{strength: strength, idBits: idBits}
}

// Name implements Detector.
func (q *QCD) Name() string { return fmt.Sprintf("QCD-%d", q.strength) }

// Strength returns the random-integer length in bits.
func (q *QCD) Strength() int { return q.strength }

// ContentionPayload draws r from the tag's stream and builds r ⊕ r̄ in
// scratch; for strengths up to 32 the preamble stays inline and costs
// nothing.
func (q *QCD) ContentionPayload(t *tagmodel.Tag, scratch bitstr.BitString) bitstr.BitString {
	r := bitstr.FromUint64(t.Rng.Bits(q.strength), q.strength)
	return bitstr.ConcatInto(&scratch, r, bitstr.Not(r))
}

// Classify implements Algorithm 1 of the paper:
//
//	if s = 0 (no energy)      -> idle
//	else split s into r ⊕ c:
//	  if c = f(r) = r̄         -> single
//	  else                    -> collided
func (q *QCD) Classify(rx signal.Reception) signal.SlotType {
	if !rx.Energy {
		return signal.Idle
	}
	if rx.Signal.Len() != 2*q.strength {
		// A malformed phase (e.g. jamming with the wrong frame length)
		// cannot be a clean single response.
		return signal.Collided
	}
	// c = r̄ compared as machine words: both halves of the preamble fit in
	// 64 bits (strength <= 64), so no sub-string is materialised.
	r := rx.Signal.Uint64Range(0, q.strength)
	c := rx.Signal.Uint64Range(q.strength, 2*q.strength)
	mask := ^uint64(0) >> (64 - uint(q.strength))
	if c == ^r&mask {
		return signal.Single
	}
	return signal.Collided
}

// ContentionBits is the preamble length l_prm = 2·strength.
func (q *QCD) ContentionBits() int { return 2 * q.strength }

// IDPhaseBits is the ID length l_id: QCD tags transmit their ID only
// after the reader declares the slot single.
func (q *QCD) IDPhaseBits() int { return q.idBits }

// ExtractID reads the acknowledged ID from the ID-phase reception.
func (q *QCD) ExtractID(_, idPhase signal.Reception) (bitstr.BitString, bool) {
	if !idPhase.Energy || idPhase.Signal.Len() != q.idBits {
		return bitstr.BitString{}, false
	}
	return idPhase.Signal, true
}

// MissProbability returns the probability that a collision among m
// responders goes undetected: all m tags must draw the same integer,
// which happens with probability 2^-(strength·(m-1)).
func (q *QCD) MissProbability(m int) float64 {
	if m <= 1 {
		return 0
	}
	return math.Pow(2, -float64(q.strength)*float64(m-1))
}

var _ Detector = (*QCD)(nil)
