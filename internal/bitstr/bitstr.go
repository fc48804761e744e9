// Package bitstr implements fixed-length bit strings and the bit-level
// operations the RFID signal model is built on: bitwise Boolean sum
// (overlap of concurrent transmissions), bitwise complement (the QCD
// collision function), concatenation (preamble framing) and slicing.
//
// Bits are addressed MSB-first: bit index 0 is the first bit on the air,
// stored in the most significant position of the first byte. A BitString
// of length 0 is valid and represents the empty signal.
//
// # Representation
//
// Strings of at most 64 bits — every QCD preamble half, r‖r̄ up to
// strength 32, and the default 64-bit IDs — are stored inline in a single
// machine word with no heap pointer, so constructing, complementing,
// concatenating and comparing them never allocates. Longer strings are
// backed by a byte slice. The two representations are interchangeable:
// every operation accepts either, and Equal/Compare/Key are
// representation-agnostic. The simulator's ideal-channel slot path relies
// on this invariant to run allocation-free; see internal/air.
package bitstr

import (
	"fmt"
	"math/bits"
)

// BitString is an immutable-by-convention sequence of bits. The zero value
// is the empty bit string. Functions in this package never mutate their
// receivers or arguments unless the name says so (e.g. OrInPlace, SetBit).
//
// Invariants: when b is nil the string is inline — n <= 64 and the bits
// occupy the top n bits of w, with the remaining low bits zero. When b is
// non-nil it holds ceil(n/8) packed bytes, MSB-first, with the trailing
// pad bits of the last byte zero (and w is meaningless). Operations may
// return either representation for n <= 64; constructors always return
// the inline one.
type BitString struct {
	b []byte // slice backing; nil for the inline representation
	w uint64 // inline bits, MSB-aligned; valid only when b == nil
	n int    // length in bits
}

// inline reports whether s uses the word representation.
func (s BitString) inline() bool { return s.b == nil }

// maskTop returns a mask covering the top n bits of a word, 0 <= n <= 64.
func maskTop(n int) uint64 { return ^uint64(0) << (64 - uint(n)) }

// maskLow returns a mask covering the low n bits of a word, 0 <= n <= 64.
func maskLow(n int) uint64 {
	if n >= 64 {
		return ^uint64(0)
	}
	return 1<<uint(n) - 1
}

// word returns the bits of s MSB-aligned in a single machine word.
// It must only be called when s.n <= 64.
func (s BitString) word() uint64 {
	if s.b == nil {
		return s.w
	}
	var v uint64
	for i, x := range s.b {
		v |= uint64(x) << (56 - 8*uint(i))
	}
	return v
}

// byteLen returns the number of packed bytes, ceil(n/8).
func (s BitString) byteLen() int { return (s.n + 7) / 8 }

// byteAt returns packed byte i regardless of representation.
func (s BitString) byteAt(i int) byte {
	if s.b != nil {
		return s.b[i]
	}
	return byte(s.w >> (56 - 8*uint(i)))
}

// New returns an all-zero bit string of length n bits.
// It panics if n is negative.
func New(n int) BitString {
	if n < 0 {
		panic(fmt.Sprintf("bitstr: negative length %d", n))
	}
	if n <= 64 {
		return BitString{n: n}
	}
	return BitString{b: make([]byte, (n+7)/8), n: n}
}

// FromBytes returns a bit string of length n whose content is the first n
// bits of data (MSB-first). It panics if data holds fewer than n bits.
func FromBytes(data []byte, n int) BitString {
	if n < 0 || len(data)*8 < n {
		panic(fmt.Sprintf("bitstr: %d bytes cannot hold %d bits", len(data), n))
	}
	if n <= 64 {
		var v uint64
		for i := 0; i < (n+7)/8; i++ {
			v |= uint64(data[i]) << (56 - 8*uint(i))
		}
		return BitString{w: v & maskTop(n), n: n}
	}
	s := BitString{b: make([]byte, (n+7)/8), n: n}
	copy(s.b, data[:(n+7)/8])
	s.clearPad()
	return s
}

// FromUint64 returns an n-bit string holding the low n bits of v,
// most significant of those n bits first. It panics unless 0 <= n <= 64.
func FromUint64(v uint64, n int) BitString {
	if n < 0 || n > 64 {
		panic(fmt.Sprintf("bitstr: FromUint64 length %d out of range", n))
	}
	// Shifting the value to the top of the word discards the bits above n
	// and leaves the pad bits zero in one operation.
	return BitString{w: v << (64 - uint(n)), n: n}
}

// Parse builds a bit string from a textual form of '0' and '1' runes.
// Any other rune is an error.
func Parse(text string) (BitString, error) {
	s := New(len(text))
	for i, r := range text {
		switch r {
		case '1':
			s.setBit(i)
		case '0':
		default:
			return BitString{}, fmt.Errorf("bitstr: invalid rune %q at %d", r, i)
		}
	}
	return s, nil
}

// MustParse is Parse that panics on error; intended for tests and constants.
func MustParse(text string) BitString {
	s, err := Parse(text)
	if err != nil {
		panic(err)
	}
	return s
}

// Len returns the length in bits.
func (s BitString) Len() int { return s.n }

// IsEmpty reports whether the string has zero length.
func (s BitString) IsEmpty() bool { return s.n == 0 }

// Bit returns bit i (0 or 1), MSB-first. It panics if i is out of range.
func (s BitString) Bit(i int) byte {
	s.check(i)
	if s.b == nil {
		return byte(s.w >> (63 - uint(i)) & 1)
	}
	return (s.b[i>>3] >> (7 - uint(i&7))) & 1
}

// SetBit returns a copy of s with bit i set to v (0 or 1).
func (s BitString) SetBit(i int, v byte) BitString {
	s.check(i)
	out := s.Clone()
	if out.b == nil {
		if v == 0 {
			out.w &^= 1 << (63 - uint(i))
		} else {
			out.w |= 1 << (63 - uint(i))
		}
		return out
	}
	if v == 0 {
		out.b[i>>3] &^= 1 << (7 - uint(i&7))
	} else {
		out.setBit(i)
	}
	return out
}

// Clone returns a deep copy of s. Cloning an inline string is a plain
// value copy and does not allocate.
func (s BitString) Clone() BitString {
	if s.b == nil {
		return s
	}
	out := BitString{b: make([]byte, len(s.b)), n: s.n}
	copy(out.b, s.b)
	return out
}

// Bytes returns a copy of the underlying bytes (MSB-first packing); the
// final byte's unused low bits are zero.
func (s BitString) Bytes() []byte {
	out := make([]byte, s.byteLen())
	s.PutBytes(out)
	return out
}

// PutBytes writes the packed bytes (MSB-first, zero pad bits) into dst
// and returns the number of bytes written, ceil(Len()/8). It panics if
// dst is shorter than that. Unlike Bytes it performs no allocation, so
// hot paths can pack into stack buffers.
func (s BitString) PutBytes(dst []byte) int {
	nb := s.byteLen()
	if len(dst) < nb {
		panic(fmt.Sprintf("bitstr: PutBytes into %d bytes, need %d", len(dst), nb))
	}
	if s.b != nil {
		copy(dst, s.b)
		return nb
	}
	for i := 0; i < nb; i++ {
		dst[i] = byte(s.w >> (56 - 8*uint(i)))
	}
	return nb
}

// Uint64 returns the value of the bits interpreted as a big-endian unsigned
// integer. It panics if the string is longer than 64 bits.
func (s BitString) Uint64() uint64 {
	if s.b == nil {
		// Kept apart from the slice case so that this common case
		// inlines at call sites; an empty string shifts out to 0.
		return s.w >> (64 - uint(s.n))
	}
	return s.sliceUint64()
}

func (s BitString) sliceUint64() uint64 {
	if s.n > 64 {
		panic(fmt.Sprintf("bitstr: Uint64 on %d-bit string", s.n))
	}
	return s.word() >> (64 - uint(s.n))
}

// Uint64Range returns the bits [lo, hi) interpreted as a big-endian
// unsigned integer, without materialising the sub-string. It panics if
// the range is invalid or wider than 64 bits. This is the allocation-free
// form of Slice(lo, hi).Uint64() the per-slot classifiers use.
func (s BitString) Uint64Range(lo, hi int) uint64 {
	if lo < 0 || hi > s.n || lo > hi || hi-lo > 64 {
		panic(fmt.Sprintf("bitstr: Uint64Range [%d,%d) of %d-bit string", lo, hi, s.n))
	}
	if lo == hi {
		return 0
	}
	return s.extractWord(lo, hi-lo) >> (64 - uint(hi-lo))
}

// extractWord returns the m bits starting at lo, MSB-aligned in a word.
// The caller guarantees 0 <= lo, 0 < m <= 64, lo+m <= s.n.
func (s BitString) extractWord(lo, m int) uint64 {
	if s.b == nil {
		return (s.w << uint(lo)) & maskTop(m)
	}
	base := lo >> 3
	shift := uint(lo & 7)
	nb := len(s.b) - base
	if nb > 8 {
		nb = 8
	}
	var v uint64
	for j := 0; j < nb; j++ {
		v |= uint64(s.b[base+j]) << (56 - 8*uint(j))
	}
	v <<= shift
	if shift > 0 && base+8 < len(s.b) {
		v |= uint64(s.b[base+8]) >> (8 - shift)
	}
	return v & maskTop(m)
}

// IsZero reports whether every bit is zero. The empty string is zero.
func (s BitString) IsZero() bool {
	if s.b == nil {
		return s.w == 0
	}
	return zeroBytes(s.b)
}

// OnesCount returns the number of one bits.
func (s BitString) OnesCount() int {
	if s.b == nil {
		return bits.OnesCount64(s.w)
	}
	c := 0
	for _, x := range s.b {
		c += bits.OnesCount8(x)
	}
	return c
}

// Equal reports whether s and t have the same length and the same bits.
// It is representation-agnostic: an inline and a slice-backed string with
// the same bits compare equal.
func (s BitString) Equal(t BitString) bool {
	if s.n != t.n {
		return false
	}
	if s.n <= 64 {
		return s.word() == t.word()
	}
	return equalBytes(s.b, t.b)
}

func (s BitString) check(i int) {
	if i < 0 || i >= s.n {
		panic(fmt.Sprintf("bitstr: index %d out of range [0,%d)", i, s.n))
	}
}

func (s *BitString) setBit(i int) {
	if s.b == nil {
		s.w |= 1 << (63 - uint(i))
		return
	}
	s.b[i>>3] |= 1 << (7 - uint(i&7))
}

// clearPad zeroes the unused low bits of the final byte (slice form) or
// of the word (inline form) so that Equal and IsZero can compare words or
// bytes directly. Every operation that can write past the logical length
// must call it; the differential tests in word agreement assert that
// padded-bit garbage can never leak into Equal/Compare.
func (s *BitString) clearPad() {
	if s.b == nil {
		s.w &= maskTop(s.n)
		return
	}
	if s.n%8 != 0 && len(s.b) > 0 {
		s.b[len(s.b)-1] &= ^byte(0) << (8 - uint(s.n%8))
	}
}
