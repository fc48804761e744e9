package crc

import (
	"encoding/binary"
	"hash/crc32"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/bitstr"
)

func TestPresetsSelfTest(t *testing.T) {
	for _, p := range Presets() {
		if err := SelfTest(p); err != nil {
			t.Errorf("%v", err)
		}
	}
}

// TestTableForSharesPresetTables: a preset's table is built once and
// shared; any other parameter set gets a table of its own. Either way
// the table computes the catalogue check value.
func TestTableForSharesPresetTables(t *testing.T) {
	check := []byte("123456789")
	for _, p := range Presets() {
		tab := TableFor(p)
		if tab != TableFor(p) {
			t.Errorf("%s: TableFor built a second table", p.Name)
		}
		if got := tab.Checksum(check); got != p.Check {
			t.Errorf("%s: shared table check = %#x, want %#x", p.Name, got, p.Check)
		}
	}
	custom := CRC16CCITTFalse
	custom.Name = "custom"
	if TableFor(custom) == TableFor(custom) {
		t.Error("a non-preset parameter set shares a table")
	}
	if got := TableFor(custom).Checksum(check); got != custom.Check {
		t.Errorf("custom table check = %#x, want %#x", got, custom.Check)
	}
}

func TestCRC32AgainstStdlib(t *testing.T) {
	// Our from-scratch CRC-32 must agree with hash/crc32 on arbitrary data.
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 50; i++ {
		n := r.Intn(200)
		data := make([]byte, n)
		r.Read(data)
		want := uint64(crc32.ChecksumIEEE(data))
		if got := Checksum(CRC32IEEE, data); got != want {
			t.Fatalf("CRC32 of %d bytes = %#x, want %#x", n, got, want)
		}
		if got := NewTable(CRC32IEEE).Checksum(data); got != want {
			t.Fatalf("table CRC32 of %d bytes = %#x, want %#x", n, got, want)
		}
	}
}

func TestBitSerialMatchesTable(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	for _, p := range Presets() {
		tab := NewTable(p)
		for i := 0; i < 30; i++ {
			n := r.Intn(100)
			data := make([]byte, n)
			r.Read(data)
			bs := Checksum(p, data)
			tb := tab.Checksum(data)
			if bs != tb {
				t.Fatalf("%s: bit-serial %#x != table %#x on %d bytes", p.Name, bs, tb, n)
			}
		}
	}
}

// wordParams are the parameter sets the word checksum is checked on:
// every preset, plus a 12-bit MSB-first width that is not a whole number
// of bytes and both 64-bit forms, whose register outlasts a short word.
func wordParams() []Params {
	return append(Presets(),
		Params{Name: "CRC-12/DECT", Width: 12, Poly: 0x80F},
		Params{Name: "CRC-64/ECMA-182", Width: 64, Poly: 0x42F0E1EBA9EA3693},
		Params{Name: "CRC-64/XZ", Width: 64, Poly: 0x42F0E1EBA9EA3693, Init: ^uint64(0),
			RefIn: true, RefOut: true, XorOut: ^uint64(0)})
}

// checkWord fails t unless tab.ChecksumUint64(v, n) is the bit-serial
// Checksum of v's n-byte big-endian encoding.
func checkWord(t *testing.T, p Params, tab *Table, v uint64, n int) {
	t.Helper()
	var buf [8]byte
	binary.BigEndian.PutUint64(buf[:], v<<(64-8*uint(n)))
	if want, got := Checksum(p, buf[:n]), tab.ChecksumUint64(v, n); got != want {
		t.Fatalf("%s: word checksum of %#x over %d bytes = %#x, bit-serial %#x", p.Name, v, n, got, want)
	}
}

// TestChecksumUint64MatchesChecksum: the word tables compute the checksum
// of a word's big-endian bytes, for every width and word length.
func TestChecksumUint64MatchesChecksum(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	for _, p := range wordParams() {
		tab := NewTable(p)
		for n := 1; n <= 8; n++ {
			for _, v := range []uint64{0, ^uint64(0), 1, 0x80 << (8 * uint(n-1))} {
				checkWord(t, p, tab, v, n)
			}
			for i := 0; i < 50; i++ {
				checkWord(t, p, tab, r.Uint64(), n)
			}
		}
	}
}

func TestChecksumBitsNonByteLengths(t *testing.T) {
	// Non-reflected CRCs must accept arbitrary bit lengths; shifting in an
	// extra zero bit must change the checksum in general.
	p := CRC16CCITTFalse
	a := bitstr.MustParse("1011001")
	b := bitstr.MustParse("10110010")
	if ChecksumBits(p, a) == ChecksumBits(p, b) {
		t.Error("7-bit and 8-bit messages share a checksum (suspicious)")
	}
}

func TestReflectedRejectsPartialBytes(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("reflected CRC accepted a 7-bit message")
		}
	}()
	ChecksumBits(CRC32IEEE, bitstr.New(7))
}

func TestAppendVerifyRoundtrip(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	for _, p := range []Params{CRC5EPC, CRC16EPC, CRC16CCITTFalse, CRC8ATM} {
		for i := 0; i < 30; i++ {
			n := r.Intn(128) + 1
			payload := randomBits(r, n)
			framed := AppendBits(p, payload)
			if framed.Len() != n+p.Width {
				t.Fatalf("%s framed length = %d", p.Name, framed.Len())
			}
			if !VerifyBits(p, framed) {
				t.Fatalf("%s verify failed on own frame", p.Name)
			}
		}
	}
}

func TestVerifyDetectsSingleBitErrors(t *testing.T) {
	// Any CRC detects all single-bit errors; flip each bit of a frame and
	// check Verify rejects it.
	p := CRC16EPC
	payload := bitstr.MustParse("1100101011110000110010101111000011001010111100001100101011110000")
	framed := AppendBits(p, payload)
	for i := 0; i < framed.Len(); i++ {
		bad := framed.SetBit(i, 1-framed.Bit(i))
		if VerifyBits(p, bad) {
			t.Fatalf("single-bit error at %d not detected", i)
		}
	}
}

func TestVerifyPanicsOnShortFrame(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("VerifyBits accepted frame shorter than checksum")
		}
	}()
	VerifyBits(CRC16EPC, bitstr.New(8))
}

func TestEngineStreaming(t *testing.T) {
	for _, p := range Presets() {
		tab := NewTable(p)
		e := tab.NewEngine()
		data := []byte("123456789")
		if _, err := e.Write(data[:3]); err != nil {
			t.Fatal(err)
		}
		if _, err := e.Write(data[3:]); err != nil {
			t.Fatal(err)
		}
		if got := e.Sum(); got != p.Check {
			t.Errorf("%s streaming = %#x, want %#x", p.Name, got, p.Check)
		}
		e.Reset()
		if _, err := e.Write(data); err != nil {
			t.Fatal(err)
		}
		if got := e.Sum(); got != p.Check {
			t.Errorf("%s after Reset = %#x, want %#x", p.Name, got, p.Check)
		}
	}
}

func TestTableSizeBytes(t *testing.T) {
	if got := NewTable(CRC32IEEE).SizeBytes(); got != 1024 {
		t.Errorf("CRC-32 table = %d bytes, want 1024 (the paper's 1KB)", got)
	}
	if got := NewTable(CRC16EPC).SizeBytes(); got != 512 {
		t.Errorf("CRC-16 table = %d bytes, want 512", got)
	}
	if got := NewTable(CRC5EPC).SizeBytes(); got != 256 {
		t.Errorf("CRC-5 table = %d bytes, want 256", got)
	}
}

func TestInstructionCountScalesWithLength(t *testing.T) {
	// The Table IV claim: CRC is O(l) with >100 instructions for realistic
	// ID lengths, QCD is a single instruction.
	_, ops64 := ChecksumBitsCounted(CRC16EPC, bitstr.New(64))
	_, ops128 := ChecksumBitsCounted(CRC16EPC, bitstr.New(128))
	if ops64 < 100 {
		t.Errorf("CRC of 64-bit ID took %d instructions, paper claims >100", ops64)
	}
	if ops128 <= ops64 {
		t.Errorf("instruction count not increasing: %d vs %d", ops64, ops128)
	}
	// Roughly linear: doubling the payload should not much more than
	// double the count.
	if ops128 > 3*ops64 {
		t.Errorf("superlinear growth: %d -> %d", ops64, ops128)
	}
}

func TestCostModel(t *testing.T) {
	c := CRCCDCost(CRC32IEEE, 64)
	if c.Instructions <= 100 {
		t.Errorf("CRC-CD instructions = %d, want >100", c.Instructions)
	}
	if c.LookupTableB != 1024 {
		t.Errorf("CRC-CD lookup table = %dB, want 1024", c.LookupTableB)
	}
	if c.TransmitBits != 96 {
		t.Errorf("CRC-CD transmit = %d bits, want 96", c.TransmitBits)
	}
	q := QCDCost(8)
	if q.Instructions != 1 {
		t.Errorf("QCD instructions = %d, want 1", q.Instructions)
	}
	if q.TransmitBits != 16 || q.MemoryBits != 16 {
		t.Errorf("QCD bits = %d/%d, want 16/16", q.TransmitBits, q.MemoryBits)
	}
}

func TestByName(t *testing.T) {
	if p, ok := ByName("CRC-32/IEEE"); !ok || p.Width != 32 {
		t.Error("ByName failed to find CRC-32/IEEE")
	}
	if _, ok := ByName("nope"); ok {
		t.Error("ByName found a nonexistent preset")
	}
}

func TestWidthValidation(t *testing.T) {
	for _, w := range []int{0, 65} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("width %d not rejected", w)
				}
			}()
			Checksum(Params{Name: "bad", Width: w, Poly: 1}, []byte{1})
		}()
	}
}

// TestQuickLinearity exercises the defining property of CRCs with zero
// Init/XorOut: crc(a ^ b) == crc(a) ^ crc(b) for equal-length messages.
func TestQuickLinearity(t *testing.T) {
	p := Params{Name: "lin", Width: 16, Poly: 0x1021} // Init=0, XorOut=0
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(64)
		a := randomBits(r, n)
		b := randomBits(r, n)
		left := ChecksumBits(p, bitstr.Xor(a, b))
		right := ChecksumBits(p, a) ^ ChecksumBits(p, b)
		return left == right
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func randomBits(r *rand.Rand, n int) bitstr.BitString {
	s := bitstr.New(n)
	for i := 0; i < n; i++ {
		if r.Intn(2) == 1 {
			s = s.SetBit(i, 1)
		}
	}
	return s
}

func BenchmarkBitSerialCRC16Of64Bits(b *testing.B) {
	payload := allOnes(64)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = ChecksumBits(CRC16EPC, payload)
	}
}

func BenchmarkTableCRC32(b *testing.B) {
	tab := NewTable(CRC32IEEE)
	data := make([]byte, 8)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = tab.Checksum(data)
	}
}
