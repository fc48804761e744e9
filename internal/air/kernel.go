package air

import (
	"repro/internal/detect"
	"repro/internal/signal"
	"repro/internal/tagmodel"
)

// kernelKind names the word-level slot kernel bound to a detector.
type kernelKind uint8

const (
	kernelQCD kernelKind = iota
	kernelCRCCD
	kernelOracle
)

// wordKernel is the fused ideal-channel slot for the detectors whose
// whole slot fits in machine words: QCD (r and r̄ are one word each),
// CRC-CD over byte-multiple IDs of at most 64 bits (the ID and its
// checksum are one word each) and the oracle. Overlap is a uint64 OR,
// classification a word compare, and the ID phase an OR of ID words, so
// no payload is built, no channel is used and the detector is never
// called through its interface. It reproduces the generic path exactly —
// Outcome, BitsSent, IdentifiedAtMicros and every PRNG draw — which the
// differential test and FuzzSlotKernel pin.
type wordKernel struct {
	// det is the detector the kernel is bound to, or nil for the generic
	// path. Only the three pointer types above are ever stored, so the
	// identity check in kernelFor never compares uncomparable values.
	det            detect.Detector
	kind           kernelKind
	strength       int    // QCD: bits of r
	mask           uint64 // QCD: the low strength bits
	idBits         int    // the ID length every responder must have
	contentionBits int
	idPhaseBits    int // the detector's ID phase; 0 when the ID rode in contention
	crc            *detect.CRCCD
}

// kernelFor returns the kernel for det, binding it when det differs from
// the detector of the previous slot, or nil when det takes the generic
// path.
func (sc *SlotScratch) kernelFor(det detect.Detector) *wordKernel {
	k := &sc.kernel
	if k.det == nil || k.det != det {
		*k = bindKernel(det)
	}
	if k.det == nil {
		return nil
	}
	return k
}

// bindKernel picks det's kernel once; the zero wordKernel means the
// generic path.
func bindKernel(det detect.Detector) wordKernel {
	var k wordKernel
	switch d := det.(type) {
	case *detect.QCD:
		k.kind, k.idBits = kernelQCD, d.IDPhaseBits()
		k.strength = d.Strength()
		k.mask = ^uint64(0) >> (64 - uint(k.strength))
	case *detect.CRCCD:
		k.kind, k.idBits, k.crc = kernelCRCCD, d.ContentionBits()-d.CRCWidth(), d
		if k.idBits%8 != 0 {
			return wordKernel{} // the generic path runs the bit-serial CRC engine
		}
	case *detect.Oracle:
		k.kind, k.idBits = kernelOracle, d.IDPhaseBits()
	default:
		return wordKernel{}
	}
	if k.idBits > 64 {
		return wordKernel{}
	}
	k.det, k.contentionBits, k.idPhaseBits = det, det.ContentionBits(), det.IDPhaseBits()
	return k
}

// fits reports whether every responder's ID has the detector's length,
// so that IDs overlap as words. A mismatched responder sends the slot to
// the generic path, which owns that case's semantics (a phantom read or
// a channel panic); the check runs before any PRNG draw or BitsSent
// update, so the fallback starts from untouched tags.
func (k *wordKernel) fits(responders []*tagmodel.Tag) bool {
	for _, t := range responders {
		if t.ID.Len() != k.idBits {
			return false
		}
	}
	return true
}

// run executes one slot over the ideal channel into *out; it is RunSlot
// for a bound kernel whose responders fit.
func (k *wordKernel) run(out *Outcome, responders []*tagmodel.Tag, nowMicros, tauMicros float64) {
	*out = Outcome{Truth: signal.Classify(len(responders)), Declared: signal.Idle, Bits: k.contentionBits}
	if len(responders) == 0 {
		return
	}

	// Contention: orA/orB are the two overlapped words of the phase —
	// r and c for QCD, the ID and its checksum for CRC-CD.
	var orA, orB uint64
	var single bool
	switch k.kind {
	case kernelQCD:
		for _, t := range responders {
			r := t.Rng.Bits(k.strength)
			orA |= r
			orB |= ^r & k.mask
			t.BitsSent += int64(k.contentionBits)
		}
		single = orB == ^orA&k.mask
	case kernelCRCCD:
		// A lone responder's checksum is crc(id) on both sides of the
		// compare, so only an overlap pays the two CRCs.
		single = len(responders) == 1
		for _, t := range responders {
			orA |= t.ID.Uint64()
			t.BitsSent += int64(k.contentionBits)
		}
		if !single {
			for _, t := range responders {
				orB |= k.crc.ChecksumUint64(t.ID.Uint64())
			}
			single = k.crc.ChecksumUint64(orA) == orB
		}
	default: // kernelOracle
		for _, t := range responders {
			t.BitsSent += int64(k.contentionBits)
		}
		single = len(responders) == 1
	}
	if !single {
		out.Declared = signal.Collided
		return
	}
	out.Declared = signal.Single

	// A scheme with an ID phase (QCD, the oracle) has every responder
	// send its ID now, and the reader hears the OR of the IDs; CRC-CD's
	// ID rode in the contention phase.
	acked := orA
	if k.idPhaseBits > 0 {
		out.Bits += k.idPhaseBits
		acked = 0
		for _, t := range responders {
			t.BitsSent += int64(k.idBits)
			acked |= t.ID.Uint64()
		}
	}
	for _, t := range responders {
		if t.ID.Uint64() == acked {
			t.Identified = true
			t.IdentifiedAtMicros = nowMicros + float64(float64(out.Bits)*tauMicros)
			out.Identified = t
			return
		}
	}
	out.Phantom = true
}
