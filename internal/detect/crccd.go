package detect

import (
	"fmt"

	"repro/internal/bitstr"
	"repro/internal/crc"
	"repro/internal/signal"
	"repro/internal/tagmodel"
)

// CRCCD is the baseline collision detector of Figure 1: in every slot a
// responding tag transmits ID ⊕ crc(ID); the reader recomputes the CRC of
// the (possibly overlapped) ID portion and compares it against the
// (possibly overlapped) checksum portion. Equality declares a single
// slot. A collision is missed only when crc(∨ id_i) happens to equal
// ∨ crc(id_i), with probability ≈ 2^-width.
type CRCCD struct {
	params crc.Params
	idBits int
	tab    *crc.Table // table-driven engine for byte-multiple IDs
}

// NewCRCCD returns a CRC-CD detector using the given CRC parameter set
// over idBits-bit IDs. The paper's configuration is 64-bit IDs with a
// 32-bit CRC (l_id = 64, l_crc = 32). The 256-entry lookup table is
// precomputed here so the per-slot path never runs the bit-serial engine
// for byte-multiple IDs.
func NewCRCCD(params crc.Params, idBits int) *CRCCD {
	checkIDBits(idBits)
	if params.RefIn && idBits%8 != 0 {
		panic(fmt.Sprintf("detect: %s reflects input bytes; idBits %d is not a whole number of bytes", params.Name, idBits))
	}
	return &CRCCD{params: params, idBits: idBits, tab: crc.TableFor(params)}
}

// crcFastBytes bounds the stack buffer of the table-driven checksum path:
// 32 bytes cover a 256-bit contention frame, beyond every preset ID/CRC
// combination. Larger or non-byte-multiple payloads take the bit-serial
// engine, which computes the identical value (see crc.SelfTest and the
// differential test in internal/crc).
const crcFastBytes = 32

// checksumID computes crc(id) without allocating when the ID is a whole
// number of bytes and fits the stack buffer.
func (c *CRCCD) checksumID(id bitstr.BitString) uint64 {
	if id.Len()%8 == 0 && id.Len() <= 8*crcFastBytes {
		var buf [crcFastBytes]byte
		n := id.PutBytes(buf[:])
		return c.tab.Checksum(buf[:n])
	}
	return crc.ChecksumBits(c.params, id)
}

// ChecksumUint64 returns crc(id) for an ID held as the low idBits bits
// of a word: the checksum ContentionPayload frames and Classify
// recomputes, for byte-multiple IDs of at most 64 bits. The word kernel
// in internal/air calls it in place of building the framed unit.
func (c *CRCCD) ChecksumUint64(id uint64) uint64 {
	return c.tab.ChecksumUint64(id, c.idBits/8)
}

// Name implements Detector.
func (c *CRCCD) Name() string { return "CRC-CD/" + c.params.Name }

// CRCWidth returns l_crc in bits.
func (c *CRCCD) CRCWidth() int { return c.params.Width }

// ContentionPayload builds the framed unit ID ⊕ crc(ID) in scratch.
func (c *CRCCD) ContentionPayload(t *tagmodel.Tag, scratch bitstr.BitString) bitstr.BitString {
	if t.ID.Len() != c.idBits {
		panic(fmt.Sprintf("detect: tag ID of %d bits under a %d-bit CRC-CD", t.ID.Len(), c.idBits))
	}
	sum := bitstr.FromUint64(c.checksumID(t.ID), c.params.Width)
	return bitstr.ConcatInto(&scratch, t.ID, sum)
}

// Classify recomputes the CRC over the overlapped ID portion and compares
// it with the overlapped checksum portion. The common byte-multiple case
// packs the signal into a stack buffer and runs the table-driven engine;
// the received checksum is read straight out of the signal as a word, so
// no sub-strings are materialised.
func (c *CRCCD) Classify(rx signal.Reception) signal.SlotType {
	if !rx.Energy {
		return signal.Idle
	}
	total := c.idBits + c.params.Width
	if rx.Signal.Len() != total {
		return signal.Collided
	}
	got := rx.Signal.Uint64Range(c.idBits, total)
	var sum uint64
	if c.idBits%8 == 0 && total <= 8*crcFastBytes {
		var buf [crcFastBytes]byte
		rx.Signal.PutBytes(buf[:])
		sum = c.tab.Checksum(buf[:c.idBits/8])
	} else {
		sum = crc.ChecksumBits(c.params, rx.Signal.Slice(0, c.idBits))
	}
	if sum == got {
		return signal.Single
	}
	return signal.Collided
}

// ContentionBits is l_id + l_crc: the ID and checksum ride in every slot.
func (c *CRCCD) ContentionBits() int { return c.idBits + c.params.Width }

// IDPhaseBits is zero: the ID was already carried in contention.
func (c *CRCCD) IDPhaseBits() int { return 0 }

// ExtractID returns the ID portion of the contention signal.
func (c *CRCCD) ExtractID(contention, _ signal.Reception) (bitstr.BitString, bool) {
	if !contention.Energy || contention.Signal.Len() != c.idBits+c.params.Width {
		return bitstr.BitString{}, false
	}
	return contention.Signal.Slice(0, c.idBits), true
}

var _ Detector = (*CRCCD)(nil)
