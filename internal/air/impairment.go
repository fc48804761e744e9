package air

import (
	"fmt"

	"repro/internal/bitstr"
	"repro/internal/detect"
	"repro/internal/prng"
	"repro/internal/tagmodel"
)

// Impairment models a non-ideal channel, the "more practical issues"
// the paper's conclusion defers:
//
//   - BER flips each bit the reader receives independently with the given
//     probability. Noise makes both schemes conservative: a flipped
//     preamble bit breaks c = r̄ and a flipped payload bit breaks the CRC,
//     so clean singles get re-arbitrated instead of mis-read.
//   - CaptureProb is the capture effect: with this probability a slot
//     with m ≥ 2 responders delivers only the strongest tag's signal, so
//     the reader legitimately singulates one tag out of a collision.
//
// The zero value is the ideal channel.
type Impairment struct {
	BER         float64
	CaptureProb float64
	// Rng drives the noise and capture draws; required when either
	// probability is non-zero.
	Rng *prng.Source
}

func (im *Impairment) active() bool {
	return im != nil && (im.BER > 0 || im.CaptureProb > 0)
}

func (im *Impairment) validate() {
	if im == nil {
		return
	}
	if im.BER < 0 || im.BER >= 1 || im.CaptureProb < 0 || im.CaptureProb > 1 {
		panic(fmt.Sprintf("air: invalid impairment %+v", im))
	}
	if im.active() && im.Rng == nil {
		panic("air: impairment needs an Rng")
	}
}

// capture draws whether one of n responders captures the slot: with
// probability CaptureProb the strongest of them (modelled as a uniform
// pick) is the only tag the reader hears in both phases. It returns that
// responder's index, or -1; a nil impairment, a zero CaptureProb or fewer
// than two responders make no draw.
func (im *Impairment) capture(n int) int {
	if im != nil && n >= 2 && im.CaptureProb > 0 && im.Rng.Float64() < im.CaptureProb {
		return im.Rng.Intn(n)
	}
	return -1
}

// corrupt flips bits of s independently with probability BER.
func (im *Impairment) corrupt(s bitstr.BitString) bitstr.BitString {
	if im == nil || im.BER == 0 || s.Len() == 0 {
		return s
	}
	out := s
	for i := 0; i < s.Len(); i++ {
		if im.Rng.Float64() < im.BER {
			out = out.SetBit(i, 1-out.Bit(i))
		}
	}
	return out
}

// RunSlotImpaired is RunSlot over a noisy/capturing channel, reusing sc's
// channels and buffers. A nil or zero impairment reproduces RunSlot
// exactly: it makes no draw and still takes the word kernel.
func (sc *SlotScratch) RunSlotImpaired(det detect.Detector, responders []*tagmodel.Tag, im *Impairment, nowMicros, tauMicros float64) (out Outcome) {
	if im != nil {
		im.validate()
	}
	sc.runSlot(&out, det, responders, im, nil, nowMicros, tauMicros)
	return out
}

// RunSlotImpaired is the convenience form of SlotScratch.RunSlotImpaired
// with freshly zeroed scratch state; engines in a hot loop should hold a
// SlotScratch instead.
func RunSlotImpaired(det detect.Detector, responders []*tagmodel.Tag, im *Impairment, nowMicros, tauMicros float64) Outcome {
	var sc SlotScratch
	return sc.RunSlotImpaired(det, responders, im, nowMicros, tauMicros)
}
