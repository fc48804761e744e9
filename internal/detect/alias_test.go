package detect

import (
	"testing"

	"repro/internal/bitstr"
	"repro/internal/crc"
	"repro/internal/prng"
	"repro/internal/signal"
	"repro/internal/tagmodel"
)

// TestCRC16AliasExistsAndFoolsCRCCD hunts for a concrete instance of the
// paper's CRC misdetection (error probability 2^-r, Section IV-A): a pair
// of IDs whose overlapped signal happens to satisfy
// crc(id_a ∨ id_b) = crc(id_a) ∨ crc(id_b), which CRC-CD declares a
// single slot. Expected hits per trial are 2^-16, so half a million
// random pairs find one with overwhelming probability — and QCD-16 at the
// same check width must still flag the very same pair (its misses depend
// on the random integers, not the IDs).
func TestCRC16AliasExistsAndFoolsCRCCD(t *testing.T) {
	if testing.Short() {
		t.Skip("alias hunt samples ~500k pairs")
	}
	params := crc.CRC16EPC
	tab := crc.NewTable(params)
	rng := prng.New(0xA11A5)

	found := false
	var idA, idB bitstr.BitString
	const trials = 2_000_000
	buf := make([]byte, 8)
	or := make([]byte, 8)
	for i := 0; i < trials && !found; i++ {
		a := rng.Uint64()
		b := rng.Uint64()
		if a == b {
			continue
		}
		put64(buf, a)
		ca := tab.Checksum(buf)
		put64(buf, b)
		cb := tab.Checksum(buf)
		put64(or, a|b)
		cOr := tab.Checksum(or)
		if cOr == ca|cb {
			found = true
			idA = bitstr.FromUint64(a, 64)
			idB = bitstr.FromUint64(b, 64)
		}
	}
	if !found {
		// P(no hit) ≈ (1 − 2^-16)^2e6 ≈ e^-30.5: effectively impossible.
		t.Fatal("no CRC-16 alias in 2M pairs — misdetection model or CRC engine is off")
	}

	// The found pair must fool the actual CRC-CD detector end to end.
	det := NewCRCCD(params, 64)
	src := prng.New(1)
	ta := tagmodel.New(0, idA, src.Split())
	tb := tagmodel.New(1, idB, src.Split())
	rx := signal.Overlap(det.ContentionPayload(ta, bitstr.BitString{}), det.ContentionPayload(tb, bitstr.BitString{}))
	if got := det.Classify(rx); got != signal.Single {
		t.Fatalf("alias pair classified %v by CRC-CD; expected a missed collision", got)
	}

	// QCD at the same 16-bit check width flags this exact pair unless the
	// tags draw identical integers (2^-16 per slot, independent of IDs).
	q := NewQCD(16, 64)
	misses := 0
	for i := 0; i < 1000; i++ {
		rxq := signal.Overlap(q.ContentionPayload(ta, bitstr.BitString{}), q.ContentionPayload(tb, bitstr.BitString{}))
		if q.Classify(rxq) == signal.Single {
			misses++
		}
	}
	if misses > 2 {
		t.Errorf("QCD-16 missed the alias pair %d/1000 times; expected ~0 (2^-16 per slot)", misses)
	}
}

func put64(dst []byte, v uint64) {
	for i := 7; i >= 0; i-- {
		dst[i] = byte(v)
		v >>= 8
	}
}
