package air

import (
	"testing"

	"repro/internal/bitstr"
	"repro/internal/crc"
	"repro/internal/detect"
	"repro/internal/signal"
)

// Per-slot micro-benchmarks for the three ground-truth slot types under
// each detector. These localise hot-path regressions to the slot engine
// (bitstr + signal + air) before they show up in end-to-end numbers; the
// companion allocation guard pins the ideal-channel QCD/oracle paths at
// zero allocations.

func benchSlot(b *testing.B, det detect.Detector, responders int) {
	b.Helper()
	p := pop(responders, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		o := RunSlot(det, p, 0, 1)
		if o.Identified != nil {
			o.Identified.Identified = false
		}
	}
}

func BenchmarkRunSlot(b *testing.B) {
	dets := []struct {
		name string
		det  detect.Detector
	}{
		{"qcd", detect.NewQCD(8, 64)},
		{"crccd", detect.NewCRCCD(crc.CRC32IEEE, 64)},
		{"oracle", detect.NewOracle(1, 64)},
	}
	cases := []struct {
		name       string
		responders int
	}{
		{"idle", 0},
		{"single", 1},
		{"collided", 4},
	}
	for _, c := range cases {
		for _, d := range dets {
			b.Run(c.name+"/"+d.name, func(b *testing.B) {
				benchSlot(b, d.det, c.responders)
			})
		}
	}
}

// BenchmarkRunSlotImpaired measures the noisy-channel slot path (BER +
// capture), which is allowed to allocate; it exists so an optimisation of
// the ideal path cannot silently regress the impaired one.
func BenchmarkRunSlotImpaired(b *testing.B) {
	det := detect.NewQCD(8, 64)
	p := pop(4, 1)
	im := &Impairment{BER: 0.001, CaptureProb: 0.1, Rng: p[0].Rng.Split()}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		o := RunSlotImpaired(det, p, im, 0, 1)
		if o.Identified != nil {
			o.Identified.Identified = false
		}
	}
}

var benchSink signal.SlotType

// BenchmarkClassifyOnly isolates the reader-side verdict from payload
// generation: one overlapped reception classified repeatedly.
func BenchmarkClassifyOnly(b *testing.B) {
	det := detect.NewQCD(8, 64)
	p := pop(2, 1)
	rx := signal.Overlap(det.ContentionPayload(p[0], bitstr.BitString{}), det.ContentionPayload(p[1], bitstr.BitString{}))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchSink = det.Classify(rx)
	}
}
