package detect

import (
	"repro/internal/bitstr"
	"repro/internal/signal"
	"repro/internal/tagmodel"
)

// Oracle is an idealised detector for ablation studies: it classifies
// slots from ground truth with zero contention overhead (as if the reader
// had the special collision-sensing hardware the paper's Section I calls
// "costly and unaffordable"). It lower-bounds the identification time of
// any real detection scheme, isolating how much of QCD's gain comes from
// the short preamble versus from detection accuracy.
type Oracle struct {
	contentionBits int // configurable floor, usually 1 (a minimal RN burst)
	idBits         int
	zero           bitstr.BitString // all-zero template the burst complements
}

// NewOracle returns an oracle detector. contentionBits models the shortest
// physically meaningful contention burst (use 1 for the pure lower bound).
func NewOracle(contentionBits, idBits int) *Oracle {
	if contentionBits < 1 {
		panic("detect: oracle contention must be at least 1 bit")
	}
	checkIDBits(idBits)
	return &Oracle{
		contentionBits: contentionBits,
		idBits:         idBits,
		zero:           bitstr.New(contentionBits),
	}
}

// Name implements Detector.
func (o *Oracle) Name() string { return "Oracle" }

// ContentionPayload builds a minimal all-ones burst in scratch; content
// is irrelevant because classification uses ground truth. The burst is
// built fresh on each call, never shared, so a caller that reuses the
// payload as its next scratch cannot overwrite it.
func (o *Oracle) ContentionPayload(_ *tagmodel.Tag, scratch bitstr.BitString) bitstr.BitString {
	return bitstr.NotInto(&scratch, o.zero)
}

// Classify reads the ground-truth responder count.
func (o *Oracle) Classify(rx signal.Reception) signal.SlotType {
	return signal.Classify(rx.Responders)
}

// ContentionBits implements Detector.
func (o *Oracle) ContentionBits() int { return o.contentionBits }

// IDPhaseBits is l_id: like QCD, the ID is sent only in single slots.
func (o *Oracle) IDPhaseBits() int { return o.idBits }

// ExtractID reads the ID-phase reception.
func (o *Oracle) ExtractID(_, idPhase signal.Reception) (bitstr.BitString, bool) {
	if !idPhase.Energy || idPhase.Signal.Len() != o.idBits {
		return bitstr.BitString{}, false
	}
	return idPhase.Signal, true
}

var _ Detector = (*Oracle)(nil)
