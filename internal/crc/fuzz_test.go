package crc

import (
	"hash/crc32"
	"testing"
)

// FuzzCRC32AgainstStdlib cross-checks both engines against hash/crc32 on
// arbitrary byte strings.
func FuzzCRC32AgainstStdlib(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("123456789"))
	f.Add([]byte{0x00, 0xFF, 0xA5})
	tab := NewTable(CRC32IEEE)
	f.Fuzz(func(t *testing.T, data []byte) {
		want := uint64(crc32.ChecksumIEEE(data))
		if got := Checksum(CRC32IEEE, data); got != want {
			t.Fatalf("bit-serial = %#x, stdlib = %#x", got, want)
		}
		if got := tab.Checksum(data); got != want {
			t.Fatalf("table = %#x, stdlib = %#x", got, want)
		}
	})
}

// FuzzEnginesAgree cross-checks the bit-serial and table engines on every
// preset for arbitrary input.
func FuzzEnginesAgree(f *testing.F) {
	f.Add([]byte("hello"))
	f.Add([]byte{})
	tables := map[string]*Table{}
	for _, p := range Presets() {
		tables[p.Name] = NewTable(p)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, p := range Presets() {
			if bs, tb := Checksum(p, data), tables[p.Name].Checksum(data); bs != tb {
				t.Fatalf("%s: bit-serial %#x != table %#x on %d bytes", p.Name, bs, tb, len(data))
			}
		}
	})
}

// FuzzChecksumUint64 cross-checks the word tables against the bit-serial
// engine: ChecksumUint64(v, n) is the checksum of v's n-byte big-endian
// encoding for every parameter set of wordParams.
func FuzzChecksumUint64(f *testing.F) {
	f.Add(uint64(0), uint8(8))
	f.Add(^uint64(0), uint8(1))
	f.Add(uint64(0x0123456789ABCDEF), uint8(3))
	params := wordParams()
	tables := make([]*Table, len(params))
	for i, p := range params {
		tables[i] = NewTable(p)
	}
	f.Fuzz(func(t *testing.T, v uint64, n uint8) {
		for i, p := range params {
			checkWord(t, p, tables[i], v, 1+int(n%8))
		}
	})
}
