// Package phy models the EPC Gen-2 / ISO 18000-6C physical layer enough
// to time transmissions accurately: PIE (pulse-interval encoding) on the
// reader-to-tag link, where a data-1 symbol is physically longer than a
// data-0, and FM0 / Miller subcarrier encodings on the tag-to-reader
// backscatter link, whose bit rate is set by the backscatter link
// frequency (BLF) and the Miller factor M.
//
// The paper's evaluation assumes one τ per bit in both directions. That
// is a simplification: a real Gen-2 link is asymmetric (reader symbols
// are Tari-scaled and value-dependent; tag bits are M/BLF each). This
// package supplies the accurate per-link timing so the reproduction can
// check that the paper's conclusions survive the realistic link budget
// (experiment "phy").
package phy

import "fmt"

// Tari is the reference time interval of the reader's data-0 symbol, in
// microseconds. Gen-2 allows 6.25, 12.5 or 25 μs.
type Tari float64

// Gen-2 Tari values.
const (
	Tari625 Tari = 6.25
	Tari125 Tari = 12.5
	Tari25  Tari = 25.0
)

func (t Tari) valid() bool { return t == Tari625 || t == Tari125 || t == Tari25 }

// PIE encodes reader bits: data-0 occupies one Tari, data-1 between 1.5
// and 2 Tari (we use the maximal 2 Tari, the robust choice).
type PIE struct {
	Tari Tari
	// OneLen is the data-1 length in Tari units (1.5..2).
	OneLen float64
}

// NewPIE returns a PIE encoder. It panics on out-of-spec parameters.
func NewPIE(t Tari, oneLen float64) PIE {
	if !t.valid() {
		panic(fmt.Sprintf("phy: Tari %v out of spec {6.25, 12.5, 25}", float64(t)))
	}
	if oneLen < 1.5 || oneLen > 2.0 {
		panic(fmt.Sprintf("phy: data-1 length %v Tari out of [1.5, 2.0]", oneLen))
	}
	return PIE{Tari: t, OneLen: oneLen}
}

// SymbolMicros returns the duration of one symbol carrying the given bit.
// Here and in every timing below, a product is rounded by an explicit
// conversion before it is added, so no architecture fuses the two.
func (p PIE) SymbolMicros(bit byte) float64 {
	if bit == 0 {
		return float64(p.Tari)
	}
	return float64(float64(p.Tari) * p.OneLen)
}

// Micros returns the duration of a command of zeros zero-bits and ones
// one-bits (commands are specified by composition, not content, at this
// resolution).
func (p PIE) Micros(zeros, ones int) float64 {
	return float64(float64(zeros)*p.SymbolMicros(0)) + float64(float64(ones)*p.SymbolMicros(1))
}

// MeanBitMicros is the expected symbol time for balanced random payloads,
// the right per-bit charge for commands whose content we don't model.
func (p PIE) MeanBitMicros() float64 {
	return (p.SymbolMicros(0) + p.SymbolMicros(1)) / 2
}

// TagEncoding is the backscatter modulation: FM0 (one symbol per bit) or
// Miller with M subcarrier cycles per bit.
type TagEncoding int

// Tag encodings.
const (
	FM0 TagEncoding = 1 // baseband FM0: 1 cycle per bit
	M2  TagEncoding = 2 // Miller, M=2
	M4  TagEncoding = 4
	M8  TagEncoding = 8
)

func (e TagEncoding) valid() bool {
	switch e {
	case FM0, M2, M4, M8:
		return true
	}
	return false
}

// String implements fmt.Stringer.
func (e TagEncoding) String() string {
	if e == FM0 {
		return "FM0"
	}
	return fmt.Sprintf("Miller-%d", int(e))
}

// Backscatter times the tag-to-reader link.
type Backscatter struct {
	// BLFkHz is the backscatter link frequency in kHz (Gen-2: 40–640).
	BLFkHz float64
	// Encoding sets cycles per bit.
	Encoding TagEncoding
}

// NewBackscatter returns a backscatter link timing. It panics on
// out-of-spec parameters.
func NewBackscatter(blfKHz float64, enc TagEncoding) Backscatter {
	if blfKHz < 40 || blfKHz > 640 {
		panic(fmt.Sprintf("phy: BLF %v kHz out of [40, 640]", blfKHz))
	}
	if !enc.valid() {
		panic(fmt.Sprintf("phy: invalid tag encoding %d", int(enc)))
	}
	return Backscatter{BLFkHz: blfKHz, Encoding: enc}
}

// BitMicros is the duration of one tag bit: M cycles of the subcarrier.
func (b Backscatter) BitMicros() float64 {
	return float64(int(b.Encoding)) * 1e3 / b.BLFkHz
}

// Micros times an n-bit tag transmission.
func (b Backscatter) Micros(n int) float64 { return float64(float64(n) * b.BitMicros()) }

// Link is a complete asymmetric link budget.
type Link struct {
	Reader PIE
	Tag    Backscatter
	// T1, T2 are the Gen-2 turnaround times (tag response delay and
	// reader-to-next-command delay) in μs; charged once per phase switch.
	T1Micros, T2Micros float64
}

// Profiles:

// FastLink is an aggressive but in-spec profile: Tari 6.25 μs, data-1 at
// 1.5 Tari, Miller-2 at BLF 320 kHz.
func FastLink() Link {
	return Link{
		Reader:   NewPIE(Tari625, 1.5),
		Tag:      NewBackscatter(320, M2),
		T1Micros: 39, T2Micros: 20,
	}
}

// TypicalLink is the common dense-reader profile: Tari 12.5 μs, data-1 at
// 2 Tari, Miller-4 at BLF 256 kHz.
func TypicalLink() Link {
	return Link{
		Reader:   NewPIE(Tari125, 2.0),
		Tag:      NewBackscatter(256, M4),
		T1Micros: 62.5, T2Micros: 31.25,
	}
}

// SlowLink is the conservative long-range profile: Tari 25 μs, Miller-8
// at BLF 40 kHz.
func SlowLink() Link {
	return Link{
		Reader:   NewPIE(Tari25, 2.0),
		Tag:      NewBackscatter(40, M8),
		T1Micros: 125, T2Micros: 62.5,
	}
}

// EncodeMicros times an actual bit sequence under PIE (content-exact,
// unlike the balanced-mean Micros).
func (p PIE) EncodeMicros(bits []byte) float64 {
	total := 0.0
	for _, b := range bits {
		total += p.SymbolMicros(b)
	}
	return total
}

// PreambleMicros is the Gen-2 R=>T preamble that opens a Query: delimiter
// (12.5 μs) + data-0 + RTcal + TRcal. RTcal = data-0 + data-1; TRcal is
// RTcal scaled by the divide ratio (we use the customary 8/3 · RTcal / DR
// with DR=8, i.e. TRcal = RTcal · 8/3 / 8 · 3 = RTcal — simplified to the
// spec floor TRcal ≥ 1.1·RTcal, charged at 1.1).
func (p PIE) PreambleMicros() float64 {
	rtcal := p.SymbolMicros(0) + p.SymbolMicros(1)
	trcal := float64(1.1 * rtcal)
	return 12.5 + p.SymbolMicros(0) + rtcal + trcal
}

// FrameSyncMicros opens every non-Query command: delimiter + data-0 +
// RTcal.
func (p PIE) FrameSyncMicros() float64 {
	return 12.5 + p.SymbolMicros(0) + p.SymbolMicros(0) + p.SymbolMicros(1)
}

// TagPreambleBits is the FM0/Miller pilot the tag prepends to a reply
// (TRext=0: 6 bits for FM0, 10 for Miller).
func (b Backscatter) TagPreambleBits() int {
	if b.Encoding == FM0 {
		return 6
	}
	return 10
}

// TagBitsMicros times n tag bits plus the T1 turnaround that precedes a
// tag reply.
func (l Link) TagBitsMicros(n int) float64 {
	if n == 0 {
		return 0
	}
	return l.T1Micros + l.Tag.Micros(n)
}

// CommandMicros times an n-bit reader command (balanced composition)
// plus the T2 turnaround.
func (l Link) CommandMicros(n int) float64 {
	if n == 0 {
		return 0
	}
	return l.T2Micros + float64(float64(n)*l.Reader.MeanBitMicros())
}
