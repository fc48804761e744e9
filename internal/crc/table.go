package crc

import "sync"

// Table is a byte-at-a-time CRC engine with a precomputed 256-entry lookup
// table. This is the classic fast software implementation whose memory
// footprint (256 × width/8 bytes ≈ 1 KB for CRC-32) is what Table IV of
// the paper charges CRC-CD with; readers can afford it, tags cannot.
// ChecksumUint64 also reads seven per-byte-position tables, which
// SizeBytes does not count (see the package doc).
type Table struct {
	p    Params
	init uint64 // the register's starting value, reflected for RefIn
	// tab[0] is the byte table. tab[k][b] is the register that byte b
	// followed by k zero bytes leaves in a zero register.
	tab [8][256]uint64
	// zero[n] is the register n zero bytes leave in the initial one. A
	// CRC register is linear in the register and the data, so the word
	// b_0…b_{n-1} leaves zero[n] ^ tab[n-1][b_0] ^ … ^ tab[0][b_{n-1}].
	zero [9]uint64
}

// NewTable precomputes the lookup table for p.
func NewTable(p Params) *Table {
	p.validate()
	t := &Table{p: p}
	for b := 0; b < 256; b++ {
		var reg uint64
		if p.RefIn {
			// Reflected algorithm: table is indexed by raw input bytes and
			// the register shifts right.
			reg = uint64(b)
			polyRef := reflect(p.Poly&p.mask(), p.Width)
			for i := 0; i < 8; i++ {
				if reg&1 != 0 {
					reg = (reg >> 1) ^ polyRef
				} else {
					reg >>= 1
				}
			}
		} else if p.Width >= 8 {
			reg = uint64(b) << uint(p.Width-8)
			for i := 0; i < 8; i++ {
				if reg&p.topBit() != 0 {
					reg = ((reg << 1) ^ p.Poly) & p.mask()
				} else {
					reg = (reg << 1) & p.mask()
				}
			}
		} else {
			// Widths below 8 (e.g. CRC-5/EPC) keep the register
			// left-aligned in an 8-bit window; see narrowEntry.
			reg = t.narrowEntry(byte(b))
		}
		t.tab[0][b] = reg & t.widthMask()
	}
	t.init = p.Init & p.mask()
	if p.RefIn {
		t.init = reflect(t.init, p.Width)
	}
	var zeros [8]byte
	for k := 1; k < len(t.tab); k++ {
		for b, reg := range t.tab[k-1] {
			t.tab[k][b] = t.update(reg, zeros[:1])
		}
	}
	for n := range t.zero {
		t.zero[n] = t.update(t.init, zeros[:n])
	}
	return t
}

// presetTables holds one table per preset, built on first use: the
// simulator builds a CRC-CD detector for every round, and computing a
// table costs microseconds.
var presetTables = sync.OnceValue(func() map[Params]*Table {
	m := make(map[Params]*Table)
	for _, p := range Presets() {
		m[p] = NewTable(p)
	}
	return m
})

// TableFor returns p's lookup table: the shared one when p is a preset
// (a Table is read-only once built), a fresh one otherwise.
func TableFor(p Params) *Table {
	if t, ok := presetTables()[p]; ok {
		return t
	}
	return NewTable(p)
}

func (t *Table) widthMask() uint64 { return t.p.mask() }

// narrowEntry computes the table entry for widths < 8 by running the
// bit-serial step over the 8 bits of b with a zero starting register,
// returning the register after those steps given the register's top
// p.Width bits pre-loaded with b's effect. Narrow CRCs are handled by
// keeping the register left-aligned in an 8-bit window.
func (t *Table) narrowEntry(b byte) uint64 {
	// Keep the register left-justified in 8 bits: reg8 holds reg << (8-W).
	poly8 := (t.p.Poly & t.p.mask()) << uint(8-t.p.Width)
	reg8 := uint64(b)
	for i := 0; i < 8; i++ {
		if reg8&0x80 != 0 {
			reg8 = ((reg8 << 1) ^ poly8) & 0xFF
		} else {
			reg8 = (reg8 << 1) & 0xFF
		}
	}
	return reg8 >> uint(8-t.p.Width)
}

// Checksum computes the CRC of data using the lookup table.
func (t *Table) Checksum(data []byte) uint64 {
	reg := t.update(t.init, data)
	return t.finish(reg)
}

// ChecksumUint64 computes the CRC of the n low-order bytes of v, most
// significant first: the Checksum of v's n-byte big-endian encoding, for
// callers that hold the data as a word. n must lie in 1..8. Byte k from
// the bottom of v has k bytes of the word after it, so it looks up
// tab[k].
func (t *Table) ChecksumUint64(v uint64, n int) uint64 {
	reg := t.zero[n]
	for k := range t.tab[:n] {
		reg ^= t.tab[k][byte(v)]
		v >>= 8
	}
	return t.finish(reg)
}

// Engine is a streaming CRC accumulator over a Table.
type Engine struct {
	t   *Table
	reg uint64
}

// NewEngine returns a streaming accumulator for t's parameters.
func (t *Table) NewEngine() *Engine { return &Engine{t: t, reg: t.init} }

// Write absorbs data; it never fails. It implements io.Writer.
func (e *Engine) Write(data []byte) (int, error) {
	e.reg = e.t.update(e.reg, data)
	return len(data), nil
}

// Sum returns the checksum of everything written so far.
func (e *Engine) Sum() uint64 { return e.t.finish(e.reg) }

// Reset restores the engine to its initial state.
func (e *Engine) Reset() { e.reg = e.t.init }

func (t *Table) update(reg uint64, data []byte) uint64 {
	p := t.p
	switch {
	case p.RefIn:
		for _, b := range data {
			reg = (reg >> 8) ^ t.tab[0][byte(reg)^b]
		}
	case p.Width >= 8:
		shift := uint(p.Width - 8)
		for _, b := range data {
			reg = ((reg << 8) ^ t.tab[0][byte(reg>>shift)^b]) & p.mask()
		}
	default:
		// Narrow non-reflected CRC: keep register left-aligned in 8 bits.
		up := uint(8 - p.Width)
		r8 := reg << up
		for _, b := range data {
			r8 = t.tab[0][byte(r8)^b] << up
		}
		reg = r8 >> up
	}
	return reg
}

func (t *Table) finish(reg uint64) uint64 {
	p := t.p
	if p.RefIn != p.RefOut {
		reg = reflect(reg, p.Width)
	}
	return (reg ^ p.XorOut) & p.mask()
}

// SizeBytes returns the lookup table's memory footprint in bytes, the
// figure behind Table IV's "1KB" row: 256 entries of width/8 bytes
// (rounded up to whole bytes per entry).
func (t *Table) SizeBytes() int {
	entry := (t.p.Width + 7) / 8
	return 256 * entry
}
