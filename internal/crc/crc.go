// Package crc implements cyclic redundancy checks from first principles:
// a generic parameterised engine (width, polynomial, init, reflection,
// final XOR), bit-serial and table-driven computations, and an instruction
// cost model.
//
// The paper's baseline collision detector, CRC-CD, has every tag transmit
// ID || crc(ID); the reader recomputes the CRC over the (possibly
// overlapped) ID signal and compares. This package supplies the CRC used
// by both tags and readers in that scheme, with presets for the codes the
// RFID standards employ: CRC-5 and CRC-16 from EPCglobal Class-1 Gen-2 /
// ISO 18000-6, and CRC-32 (the strength the paper quotes error rates for).
//
// The bit-serial implementation exists because tag IDs are bit strings,
// not byte streams, and because its operation count is what the paper's
// Table IV "more than 100 instructions, O(l)" claim is about; the
// table-driven implementation is the reader-side fast path and the source
// of the "1KB lookup table" memory figure.
//
// That figure is the cost model: one 256-entry byte table, which
// Table.SizeBytes reports. The simulator's own Table keeps seven more
// per-byte-position tables so that the word kernel's checksum of an ID of
// up to 8 bytes is independent lookups (slicing-by-n); they make the
// simulation faster and change no checksum, and Table IV does not count
// them.
package crc

import (
	"fmt"
	"math/bits"

	"repro/internal/bitstr"
)

// Params describes a CRC in the Rocksoft/CRC-catalogue model.
type Params struct {
	Name   string
	Width  int    // bits of the register, 1..64
	Poly   uint64 // generator polynomial, normal (MSB-first) form, top bit implicit
	Init   uint64 // initial register value
	RefIn  bool   // reflect each input byte before use
	RefOut bool   // reflect the register before the final XOR
	XorOut uint64 // value XORed into the final register
	Check  uint64 // expected checksum of ASCII "123456789" (self-test)
}

func (p Params) validate() {
	if p.Width < 1 || p.Width > 64 {
		panic(fmt.Sprintf("crc: width %d out of range", p.Width))
	}
}

// topBit returns a mask selecting the register's most significant bit.
func (p Params) topBit() uint64 { return 1 << uint(p.Width-1) }

// mask returns a mask covering the register width.
func (p Params) mask() uint64 {
	if p.Width == 64 {
		return ^uint64(0)
	}
	return (1 << uint(p.Width)) - 1
}

// ChecksumBits computes the CRC of an arbitrary-length bit string using
// the bit-serial algorithm. For parameter sets with RefIn, the input
// length must be a whole number of bytes (reflection is defined per byte).
func ChecksumBits(p Params, data bitstr.BitString) uint64 {
	sum, _ := checksumBits(p, data)
	return sum
}

// ChecksumBitsCounted is ChecksumBits that also reports the number of
// primitive register operations performed (shift/xor/test per bit), the
// quantity behind Table IV's instruction comparison.
func ChecksumBitsCounted(p Params, data bitstr.BitString) (sum uint64, ops int64) {
	return checksumBits(p, data)
}

func checksumBits(p Params, data bitstr.BitString) (uint64, int64) {
	p.validate()
	if p.RefIn && data.Len()%8 != 0 {
		panic(fmt.Sprintf("crc: %s reflects input bytes; %d bits is not a whole number of bytes", p.Name, data.Len()))
	}
	reg := p.Init & p.mask()
	var ops int64
	n := data.Len()
	for i := 0; i < n; i++ {
		b := data.Bit(bitIndex(p, i, n))
		// One shift step of the non-augmented MSB-first algorithm:
		// XOR the input bit into the register's top bit, shift, and feed
		// back the polynomial when the shifted-out bit is one.
		top := (reg&p.topBit() != 0) != (b == 1)
		reg = (reg << 1) & p.mask()
		if top {
			reg ^= p.Poly & p.mask()
			ops += 4 // load bit, test+xor, shift, xor-poly
		} else {
			ops += 3 // load bit, test+xor, shift
		}
	}
	if p.RefOut {
		reg = reflect(reg, p.Width)
		ops++
	}
	return (reg ^ p.XorOut) & p.mask(), ops + 1
}

// bitIndex maps the i-th processed bit to an index in the input, applying
// per-byte reflection when the parameter set demands it.
func bitIndex(p Params, i, n int) int {
	if !p.RefIn {
		return i
	}
	byteIdx := i / 8
	within := i % 8
	_ = n
	return byteIdx*8 + (7 - within)
}

// Checksum computes the CRC of a byte slice with the bit-serial algorithm.
func Checksum(p Params, data []byte) uint64 {
	return ChecksumBits(p, bitstr.FromBytes(data, len(data)*8))
}

// AppendBits returns data ⊕ crc(data): the unit a CRC-CD tag transmits.
// The checksum occupies p.Width bits, MSB first.
func AppendBits(p Params, data bitstr.BitString) bitstr.BitString {
	sum := ChecksumBits(p, data)
	return bitstr.Concat(data, bitstr.FromUint64(sum, p.Width))
}

// VerifyBits splits framed into payload and p.Width checksum bits, and
// reports whether the checksum matches the payload. It panics if framed is
// shorter than the checksum.
func VerifyBits(p Params, framed bitstr.BitString) bool {
	if framed.Len() < p.Width {
		panic(fmt.Sprintf("crc: frame of %d bits shorter than %d-bit checksum", framed.Len(), p.Width))
	}
	payload := framed.Slice(0, framed.Len()-p.Width)
	got := framed.Slice(framed.Len()-p.Width, framed.Len()).Uint64()
	return ChecksumBits(p, payload) == got
}

func reflect(v uint64, width int) uint64 {
	return bits.Reverse64(v) >> (64 - uint(width))
}

// SelfTest recomputes the catalogue check value ("123456789") for p and
// reports whether both the bit-serial and table-driven engines agree with
// it. Presets are verified by this in package tests.
func SelfTest(p Params) error {
	data := []byte("123456789")
	if got := Checksum(p, data); got != p.Check {
		return fmt.Errorf("crc: %s bit-serial check = %#x, want %#x", p.Name, got, p.Check)
	}
	tab := NewTable(p)
	if got := tab.Checksum(data); got != p.Check {
		return fmt.Errorf("crc: %s table check = %#x, want %#x", p.Name, got, p.Check)
	}
	return nil
}
