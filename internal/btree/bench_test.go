package btree

import (
	"testing"

	"repro/internal/crc"
	"repro/internal/detect"
	"repro/internal/prng"
	"repro/internal/tagmodel"
)

// benchRun identifies the same n-tag population every iteration, so
// allocs/op is one exact figure at any -benchtime and the allocation
// gate (scripts/bench_gate.sh) can hold it.
func benchRun(b *testing.B, n int, det detect.Detector) {
	b.Helper()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		pop := tagmodel.NewPopulation(n, 64, prng.New(1))
		Run(pop, det, tm)
	}
}

func BenchmarkBT500QCD(b *testing.B)   { benchRun(b, 500, detect.NewQCD(8, 64)) }
func BenchmarkBT500CRCCD(b *testing.B) { benchRun(b, 500, detect.NewCRCCD(crc.CRC32IEEE, 64)) }
func BenchmarkBT5000QCD(b *testing.B)  { benchRun(b, 5000, detect.NewQCD(8, 64)) }

// BenchmarkABSSteadyState measures the re-read cost of a stable
// population: n single slots, no collisions.
func BenchmarkABSSteadyState(b *testing.B) {
	det := detect.NewQCD(8, 64)
	pop := tagmodel.NewPopulation(500, 64, prng.New(1))
	PrepareABS(pop)
	RunABS(pop, det, tm)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		RunABS(pop, det, tm)
	}
}

// BenchmarkBTReuse5000 is the pooled round: a warmed Reuse identifying a
// population drawn into a warmed PopScratch must allocate nothing.
func BenchmarkBTReuse5000(b *testing.B) {
	det := detect.NewQCD(8, 64)
	var ps tagmodel.PopScratch
	var r Reuse
	var rng prng.Source
	round := func() {
		rng.Seed(1)
		r.Run(ps.NewPopulation(5000, 64, &rng), det, tm)
	}
	round()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		round()
	}
}
