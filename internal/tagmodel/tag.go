// Package tagmodel models passive RFID tags: a unique ID, the per-protocol
// contention state (ABS order, BT counter, QT prefix matching), a
// private random stream, and airtime accounting.
package tagmodel

import (
	"fmt"

	"repro/internal/bitstr"
	"repro/internal/prng"
)

// Tag is one RFID tag in the reader's field.
type Tag struct {
	// ID is the tag's EPC identifier (the paper uses 64-bit IDs with a
	// 32-bit CRC, i.e. a 96-bit transmitted unit).
	ID bitstr.BitString

	// Rng is the tag's private random stream, used for slot selection,
	// BT coin flips, and QCD preamble integers. Each tag gets an
	// independent split stream so simulations are order-independent.
	Rng *prng.Source

	// Index is the tag's position in its population (stable identity for
	// metrics).
	Index int

	// Slot is the tag's order from the previous ABS round, or -1 for a
	// newcomer (see btree.RunABS). The ALOHA engines keep their slot
	// draws in their frame scheduler and never store them here.
	Slot int

	// Counter is the BT/ABS splitting counter.
	Counter int

	// Identified records whether the reader has acknowledged this tag.
	Identified bool

	// IdentifiedAtMicros is the simulation time (μs) at which the tag was
	// identified; meaningful only when Identified is true.
	IdentifiedAtMicros float64

	// BitsSent counts the tag's total transmitted bits (energy budget).
	BitsSent int64
}

// New returns a tag with the given ID and private random stream.
func New(index int, id bitstr.BitString, rng *prng.Source) *Tag {
	return &Tag{Index: index, ID: id, Rng: rng}
}

// Reset clears per-session state so the same population can be identified
// again (ABS/AQS rounds, repeated experiments on one deployment).
func (t *Tag) Reset() {
	t.Slot = 0
	t.Counter = 0
	t.Identified = false
	t.IdentifiedAtMicros = 0
	t.BitsSent = 0
}

// Population is a set of tags with unique IDs.
type Population []*Tag

// NewPopulation draws n tags with unique uniformly random idBits-bit IDs.
// Each tag receives an independent split of rng. It panics if idBits is
// too small to accommodate n distinct IDs.
func NewPopulation(n, idBits int, rng *prng.Source) Population {
	return new(PopScratch).NewPopulation(n, idBits, rng)
}

// PopScratch pools the storage a population draw needs — the tag and
// random-stream arrays, the population slice, and the ID dedup set —
// so a Monte-Carlo worker building one population per round allocates
// that working set once instead of once per round. The zero value is
// ready; not safe for concurrent use.
type PopScratch struct {
	pop      Population
	tags     []Tag
	srcs     []prng.Source
	seenWord wordSet
	seenKey  map[string]bool
}

// wordSet is a set of word-sized IDs: an open-addressed table of at
// least twice as many slots as IDs, probed linearly from a
// multiplicative hash, with 0 marking an empty slot and ID 0 kept in a
// flag of its own. Resetting clears only the slots the next draw uses.
type wordSet struct {
	slots []uint64
	shift uint // 64 − log2(len(slots))
	zero  bool
}

// reset empties the set and sizes it for n IDs: the next power of two
// at least 2n slots.
func (s *wordSet) reset(n int) {
	bits := uint(1)
	for 1<<bits < 2*n {
		bits++
	}
	size := 1 << bits
	if cap(s.slots) < size {
		s.slots = make([]uint64, size)
	} else {
		s.slots = s.slots[:size]
		clear(s.slots)
	}
	s.shift = 64 - bits
	s.zero = false
}

// add inserts v and reports whether it was new.
func (s *wordSet) add(v uint64) bool {
	if v == 0 {
		had := s.zero
		s.zero = true
		return !had
	}
	mask := uint64(len(s.slots) - 1)
	for i := (v * 0x9e3779b97f4a7c15) >> s.shift; ; i = (i + 1) & mask {
		switch s.slots[i] {
		case 0:
			s.slots[i] = v
			return true
		case v:
			return false
		}
	}
}

// NewPopulation is the package-level NewPopulation drawing from (and
// recycling) the scratch's storage. The returned population, its tags
// and their random streams alias the scratch: they are valid until the
// next call, which reuses them for the next round's tags. The draw
// sequence is identical to the package-level function's, so pooled and
// fresh populations are bit-for-bit the same.
func (ps *PopScratch) NewPopulation(n, idBits int, rng *prng.Source) Population {
	if idBits < 1 {
		panic("tagmodel: idBits must be positive")
	}
	if idBits < 63 && n > 0 && uint64(n) > (uint64(1)<<uint(idBits)) {
		panic(fmt.Sprintf("tagmodel: %d tags cannot have unique %d-bit IDs", n, idBits))
	}
	// Tags and their random streams are batch-allocated: two slice
	// allocations for the whole population instead of 2n individual ones
	// (and zero in steady state). Population setup otherwise dominates
	// the allocation profile of small-round sweeps.
	if cap(ps.pop) < n {
		ps.pop = make(Population, 0, n)
	}
	if cap(ps.tags) < n {
		ps.tags = make([]Tag, n)
	}
	if cap(ps.srcs) < n {
		ps.srcs = make([]prng.Source, n)
	}
	pop := ps.pop[:0]
	tags := ps.tags[:n]
	srcs := ps.srcs[:n]
	accept := func(id bitstr.BitString) {
		i := len(pop)
		rng.SplitInto(&srcs[i])
		tags[i] = Tag{Index: i, ID: id, Rng: &srcs[i]}
		pop = append(pop, &tags[i])
	}
	defer func() { ps.pop = pop }()
	if idBits <= 64 {
		// Word-sized IDs dedup on the raw integer — no Key() string per
		// draw. The draw sequence is identical to randomID's single-chunk
		// path, so populations are bit-for-bit the same as before.
		seen := &ps.seenWord
		seen.reset(n)
		for len(pop) < n {
			if v := rng.Bits(idBits); seen.add(v) {
				accept(bitstr.FromUint64(v, idBits))
			}
		}
		return pop
	}
	if ps.seenKey == nil {
		ps.seenKey = make(map[string]bool, n)
	} else {
		clear(ps.seenKey)
	}
	seen := ps.seenKey
	for len(pop) < n {
		id := randomID(idBits, rng)
		k := id.Key()
		if seen[k] {
			continue
		}
		seen[k] = true
		accept(id)
	}
	return pop
}

func randomID(idBits int, rng *prng.Source) bitstr.BitString {
	id := bitstr.New(0)
	for remaining := idBits; remaining > 0; {
		chunk := remaining
		if chunk > 64 {
			chunk = 64
		}
		id = bitstr.Concat(id, bitstr.FromUint64(rng.Bits(chunk), chunk))
		remaining -= chunk
	}
	return id
}

// Reset clears session state on every tag in the population.
func (p Population) Reset() {
	for _, t := range p {
		t.Reset()
	}
}

// Unidentified returns the tags not yet identified.
func (p Population) Unidentified() Population {
	var out Population
	for _, t := range p {
		if !t.Identified {
			out = append(out, t)
		}
	}
	return out
}

// AllIdentified reports whether every tag has been identified.
func (p Population) AllIdentified() bool {
	for _, t := range p {
		if !t.Identified {
			return false
		}
	}
	return true
}

// IDsUnique verifies the population invariant that all IDs are distinct.
func (p Population) IDsUnique() bool {
	seen := make(map[string]bool, len(p))
	for _, t := range p {
		k := t.ID.Key()
		if seen[k] {
			return false
		}
		seen[k] = true
	}
	return true
}
