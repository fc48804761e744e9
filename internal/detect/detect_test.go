package detect

import (
	"math"
	"testing"

	"repro/internal/bitstr"
	"repro/internal/crc"
	"repro/internal/prng"
	"repro/internal/signal"
	"repro/internal/tagmodel"
)

func newTag(idBits int, seed uint64) *tagmodel.Tag {
	rng := prng.New(seed)
	id := bitstr.FromUint64(rng.Bits(min64(idBits)), min64(idBits))
	for id.Len() < idBits {
		id = bitstr.Concat(id, bitstr.FromUint64(rng.Bits(1), 1))
	}
	return tagmodel.New(0, id, rng.Split())
}

func min64(n int) int {
	if n > 64 {
		return 64
	}
	return n
}

// --- QCD ---

func TestQCDPayloadShape(t *testing.T) {
	q := NewQCD(8, 64)
	tag := newTag(64, 1)
	p := q.ContentionPayload(tag, bitstr.BitString{})
	if p.Len() != 16 {
		t.Fatalf("payload length = %d, want 16", p.Len())
	}
	r := p.Slice(0, 8)
	c := p.Slice(8, 16)
	if !c.Equal(bitstr.Not(r)) {
		t.Fatalf("payload %v is not r||~r", p)
	}
}

func TestQCDClassifyIdle(t *testing.T) {
	q := NewQCD(8, 64)
	if got := q.Classify(signal.Reception{}); got != signal.Idle {
		t.Errorf("no energy classified as %v", got)
	}
}

func TestQCDClassifySingle(t *testing.T) {
	q := NewQCD(8, 64)
	tag := newTag(64, 2)
	rx := signal.Overlap(q.ContentionPayload(tag, bitstr.BitString{}))
	if got := q.Classify(rx); got != signal.Single {
		t.Errorf("lone responder classified as %v", got)
	}
}

func TestQCDClassifyCollisionDistinctIntegers(t *testing.T) {
	// Theorem 1: two distinct integers are always detected.
	q := NewQCD(4, 64)
	for a := uint64(0); a < 16; a++ {
		for b := uint64(0); b < 16; b++ {
			ra := bitstr.FromUint64(a, 4)
			rb := bitstr.FromUint64(b, 4)
			rx := signal.Overlap(
				bitstr.Concat(ra, bitstr.Not(ra)),
				bitstr.Concat(rb, bitstr.Not(rb)),
			)
			got := q.Classify(rx)
			if a == b {
				if got != signal.Single {
					t.Fatalf("equal integers %d: classified %v (indistinguishable case must pass)", a, got)
				}
			} else if got != signal.Collided {
				t.Fatalf("distinct integers %d,%d: classified %v, Theorem 1 violated", a, b, got)
			}
		}
	}
}

func TestQCDClassifyManyTags(t *testing.T) {
	q := NewQCD(8, 64)
	rng := prng.New(9)
	for trial := 0; trial < 200; trial++ {
		m := 2 + rng.Intn(10)
		payloads := make([]bitstr.BitString, m)
		distinct := false
		first := uint64(0)
		for i := range payloads {
			r := rng.Bits(8)
			if i == 0 {
				first = r
			} else if r != first {
				distinct = true
			}
			rb := bitstr.FromUint64(r, 8)
			payloads[i] = bitstr.Concat(rb, bitstr.Not(rb))
		}
		got := q.Classify(signal.Overlap(payloads...))
		if distinct && got != signal.Collided {
			t.Fatalf("distinct integers not detected (m=%d)", m)
		}
		if !distinct && got != signal.Single {
			t.Fatalf("identical integers flagged (m=%d)", m)
		}
	}
}

func TestQCDMalformedSignal(t *testing.T) {
	q := NewQCD(8, 64)
	rx := signal.Reception{Signal: bitstr.New(10), Energy: true}
	if got := q.Classify(rx); got != signal.Collided {
		t.Errorf("malformed frame classified %v, want collided", got)
	}
}

func TestQCDSlotBits(t *testing.T) {
	q := NewQCD(8, 64)
	if got := SlotBits(q, signal.Idle); got != 16 {
		t.Errorf("idle slot = %d bits, want 16", got)
	}
	if got := SlotBits(q, signal.Collided); got != 16 {
		t.Errorf("collided slot = %d bits, want 16", got)
	}
	if got := SlotBits(q, signal.Single); got != 80 {
		t.Errorf("single slot = %d bits, want 16+64", got)
	}
}

func TestQCDMissProbability(t *testing.T) {
	q := NewQCD(8, 64)
	if q.MissProbability(1) != 0 {
		t.Error("m=1 miss probability must be 0")
	}
	if got := q.MissProbability(2); math.Abs(got-1.0/256) > 1e-12 {
		t.Errorf("m=2 miss = %v, want 1/256", got)
	}
	if got := q.MissProbability(3); math.Abs(got-1.0/65536) > 1e-15 {
		t.Errorf("m=3 miss = %v, want 2^-16", got)
	}
	// Strength 64 must not overflow.
	if got := NewQCD(64, 64).MissProbability(2); got <= 0 || got > 1e-18 {
		t.Errorf("strength-64 miss = %v", got)
	}
}

func TestQCDEmpiricalMissRate(t *testing.T) {
	// Two tags, strength 4: collisions evade detection iff both draw the
	// same integer, expected rate 1/16.
	q := NewQCD(4, 64)
	a, b := newTag(64, 10), newTag(64, 11)
	misses, trials := 0, 20000
	for i := 0; i < trials; i++ {
		rx := signal.Overlap(q.ContentionPayload(a, bitstr.BitString{}), q.ContentionPayload(b, bitstr.BitString{}))
		if q.Classify(rx) == signal.Single {
			misses++
		}
	}
	rate := float64(misses) / float64(trials)
	if math.Abs(rate-1.0/16) > 0.01 {
		t.Errorf("empirical miss rate = %v, want ~%v", rate, 1.0/16)
	}
}

func TestQCDExtractID(t *testing.T) {
	q := NewQCD(8, 64)
	tag := newTag(64, 3)
	idRx := signal.Overlap(tag.ID)
	id, ok := q.ExtractID(signal.Reception{}, idRx)
	if !ok || !id.Equal(tag.ID) {
		t.Errorf("ExtractID = %v/%v", id, ok)
	}
	if _, ok := q.ExtractID(signal.Reception{}, signal.Reception{}); ok {
		t.Error("ExtractID succeeded with no ID phase")
	}
}

func TestQCDStrengthValidation(t *testing.T) {
	for _, s := range []int{0, 65} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("strength %d not rejected", s)
				}
			}()
			NewQCD(s, 64)
		}()
	}
}

// --- CRC-CD ---

func TestCRCCDPayloadAndClassify(t *testing.T) {
	d := NewCRCCD(crc.CRC16EPC, 64)
	tag := newTag(64, 4)
	p := d.ContentionPayload(tag, bitstr.BitString{})
	if p.Len() != 80 {
		t.Fatalf("payload = %d bits, want 64+16", p.Len())
	}
	rx := signal.Overlap(p)
	if got := d.Classify(rx); got != signal.Single {
		t.Errorf("lone responder classified %v", got)
	}
	id, ok := d.ExtractID(rx, signal.Reception{})
	if !ok || !id.Equal(tag.ID) {
		t.Errorf("ExtractID = %v/%v", id, ok)
	}
}

func TestCRCCDClassifyIdleAndCollision(t *testing.T) {
	d := NewCRCCD(crc.CRC16EPC, 64)
	if got := d.Classify(signal.Reception{}); got != signal.Idle {
		t.Errorf("idle classified %v", got)
	}
	a, b := newTag(64, 5), newTag(64, 6)
	rx := signal.Overlap(d.ContentionPayload(a, bitstr.BitString{}), d.ContentionPayload(b, bitstr.BitString{}))
	if got := d.Classify(rx); got != signal.Collided {
		t.Errorf("collision classified %v (CRC aliasing is ~2^-16, not this pair)", got)
	}
}

func TestCRCCDCollisionDetectionRate(t *testing.T) {
	// Random pairs must essentially always be detected (alias rate 2^-16).
	d := NewCRCCD(crc.CRC16EPC, 64)
	rng := prng.New(12)
	for i := 0; i < 5000; i++ {
		a := tagmodel.New(0, bitstr.FromUint64(rng.Bits(64), 64), rng.Split())
		b := tagmodel.New(1, bitstr.FromUint64(rng.Bits(64), 64), rng.Split())
		if a.ID.Equal(b.ID) {
			continue
		}
		rx := signal.Overlap(d.ContentionPayload(a, bitstr.BitString{}), d.ContentionPayload(b, bitstr.BitString{}))
		if d.Classify(rx) == signal.Single {
			t.Fatalf("trial %d: collision missed by CRC-CD (possible but ~2^-16; investigate)", i)
		}
	}
}

func TestCRCCDSlotBits(t *testing.T) {
	d := NewCRCCD(crc.CRC32IEEE, 64)
	for _, typ := range []signal.SlotType{signal.Idle, signal.Single, signal.Collided} {
		if got := SlotBits(d, typ); got != 96 {
			t.Errorf("%v slot = %d bits, want 96 for all types", typ, got)
		}
	}
}

func TestCRCCDRejectsMisalignedReflectedIDs(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("reflected CRC with 63-bit IDs not rejected")
		}
	}()
	NewCRCCD(crc.CRC32IEEE, 63)
}

func TestCRCCDWrongTagLengthPanics(t *testing.T) {
	d := NewCRCCD(crc.CRC16EPC, 64)
	defer func() {
		if recover() == nil {
			t.Fatal("mismatched tag ID length not rejected")
		}
	}()
	d.ContentionPayload(newTag(32, 7), bitstr.BitString{})
}

// --- Oracle ---

func TestOracleClassifiesByGroundTruth(t *testing.T) {
	o := NewOracle(1, 64)
	if got := o.Classify(signal.Reception{Responders: 0}); got != signal.Idle {
		t.Errorf("0 responders -> %v", got)
	}
	if got := o.Classify(signal.Reception{Responders: 1, Energy: true}); got != signal.Single {
		t.Errorf("1 responder -> %v", got)
	}
	if got := o.Classify(signal.Reception{Responders: 5, Energy: true}); got != signal.Collided {
		t.Errorf("5 responders -> %v", got)
	}
}

func TestOracleBits(t *testing.T) {
	o := NewOracle(1, 64)
	if SlotBits(o, signal.Idle) != 1 || SlotBits(o, signal.Single) != 65 {
		t.Error("oracle slot bits wrong")
	}
}

func TestDetectorNames(t *testing.T) {
	if NewQCD(8, 64).Name() != "QCD-8" {
		t.Error("QCD name")
	}
	if NewCRCCD(crc.CRC32IEEE, 64).Name() != "CRC-CD/CRC-32/IEEE" {
		t.Error("CRC-CD name")
	}
	if NewOracle(1, 64).Name() != "Oracle" {
		t.Error("oracle name")
	}
}
