package detect

import (
	"testing"

	"repro/internal/bitstr"
	"repro/internal/crc"
	"repro/internal/signal"
)

func BenchmarkQCDClassify(b *testing.B) {
	q := NewQCD(8, 64)
	tag := newTag(64, 1)
	rx := signal.Overlap(q.ContentionPayload(tag, bitstr.BitString{}))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = q.Classify(rx)
	}
}

func BenchmarkCRCCDClassify(b *testing.B) {
	d := NewCRCCD(crc.CRC32IEEE, 64)
	tag := newTag(64, 1)
	rx := signal.Overlap(d.ContentionPayload(tag, bitstr.BitString{}))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = d.Classify(rx)
	}
}

func BenchmarkQCDPayload(b *testing.B) {
	q := NewQCD(8, 64)
	tag := newTag(64, 2)
	var s bitstr.BitString
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s = q.ContentionPayload(tag, s)
	}
}

func BenchmarkCRCCDPayload(b *testing.B) {
	d := NewCRCCD(crc.CRC32IEEE, 64)
	tag := newTag(64, 3)
	var s bitstr.BitString
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s = d.ContentionPayload(tag, s)
	}
}
