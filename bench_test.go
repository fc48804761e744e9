package rfid_test

// One benchmark per table and figure of the paper's evaluation. Each
// bench regenerates its artifact at reduced scale (cases I–II, few
// rounds) so `go test -bench=.` finishes in seconds; cmd/paper runs the
// full paper-scale versions. BenchmarkTable4 additionally measures the
// raw CRC-vs-complement gap in real ns/op, the hardware-independent form
// of Table IV's instruction comparison.

import (
	"testing"

	rfid "repro"
	"repro/internal/bitstr"
	"repro/internal/crc"
	"repro/internal/experiment"
	"repro/internal/prng"
)

// benchExperiment times one artifact as a reproduction run of its own:
// each iteration resolves the runner afresh, so it starts from an empty
// memo and simulates every configuration the artifact reads.
func benchExperiment(b *testing.B, id string, o experiment.Options) {
	b.Helper()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r, ok := experiment.ByID(id)
		if !ok {
			b.Fatalf("unknown experiment %q", id)
		}
		out, err := r.Run(o)
		if err != nil {
			b.Fatal(err)
		}
		if len(out.Render()) == 0 {
			b.Fatal("empty render")
		}
	}
}

func quick() experiment.Options { return experiment.Options{Rounds: 3, MaxCase: 2, Seed: 1} }
func tiny() experiment.Options  { return experiment.Options{Rounds: 2, MaxCase: 1, Seed: 1} }

// --- Analytical artifacts (Sections III & V) ---

func BenchmarkLemma1(b *testing.B) { benchExperiment(b, "lemma1", tiny()) }
func BenchmarkLemma2(b *testing.B) { benchExperiment(b, "lemma2", tiny()) }
func BenchmarkTable2(b *testing.B) { benchExperiment(b, "table2", tiny()) }
func BenchmarkTable3(b *testing.B) { benchExperiment(b, "table3", tiny()) }

// --- Table IV: cost comparison, including real ns/op sub-benches ---

func BenchmarkTable4(b *testing.B) { benchExperiment(b, "table4", tiny()) }

func BenchmarkTable4CRCChecksum(b *testing.B) {
	// The tag-side cost of CRC-CD: an O(l) bit-serial CRC-32 over the
	// 64-bit ID, >100 register operations.
	id := bitstr.FromUint64(prng.New(1).Bits(64), 64)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = crc.ChecksumBits(crc.CRC32IEEE, id)
	}
}

func BenchmarkTable4QCDComplement(b *testing.B) {
	// The tag-side cost of QCD: one bitwise complement of the 8-bit r.
	r := bitstr.FromUint64(prng.New(1).Bits(8), 8)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = bitstr.Not(r)
	}
}

// --- Setup (Tables V & VI) ---

func BenchmarkSetup(b *testing.B) { benchExperiment(b, "setup", tiny()) }

// --- Evaluation artifacts (Section VI) ---

func BenchmarkFigure5(b *testing.B) { benchExperiment(b, "fig5", quick()) }
func BenchmarkTable7(b *testing.B)  { benchExperiment(b, "table7", quick()) }
func BenchmarkTable8(b *testing.B)  { benchExperiment(b, "table8", quick()) }
func BenchmarkTable9(b *testing.B)  { benchExperiment(b, "table9", quick()) }
func BenchmarkFigure6(b *testing.B) { benchExperiment(b, "fig6", quick()) }
func BenchmarkFigure7(b *testing.B) { benchExperiment(b, "fig7", quick()) }
func BenchmarkFigure8(b *testing.B) { benchExperiment(b, "fig8", tiny()) }

// --- Ablations (DESIGN.md §6) ---

func BenchmarkAblationDetector(b *testing.B)  { benchExperiment(b, "ablation-detector", tiny()) }
func BenchmarkAblationStrength(b *testing.B)  { benchExperiment(b, "ablation-strength", tiny()) }
func BenchmarkAblationPolicy(b *testing.B)    { benchExperiment(b, "ablation-policy", tiny()) }
func BenchmarkAblationProtocols(b *testing.B) { benchExperiment(b, "ablation-protocols", tiny()) }
func BenchmarkAblationEstimate(b *testing.B)  { benchExperiment(b, "ablation-estimate", tiny()) }
func BenchmarkAblationEnergy(b *testing.B)    { benchExperiment(b, "ablation-energy", tiny()) }
func BenchmarkAblationOverhead(b *testing.B)  { benchExperiment(b, "ablation-overhead", tiny()) }
func BenchmarkMobility(b *testing.B)          { benchExperiment(b, "mobility", tiny()) }
func BenchmarkFloor(b *testing.B)             { benchExperiment(b, "floor", tiny()) }
func BenchmarkGen2(b *testing.B)              { benchExperiment(b, "gen2", tiny()) }
func BenchmarkNoise(b *testing.B)             { benchExperiment(b, "noise", tiny()) }
func BenchmarkCapture(b *testing.B)           { benchExperiment(b, "capture", tiny()) }
func BenchmarkSchedule(b *testing.B)          { benchExperiment(b, "schedule", tiny()) }
func BenchmarkEDFSA(b *testing.B)             { benchExperiment(b, "edfsa", tiny()) }
func BenchmarkWorkloads(b *testing.B)         { benchExperiment(b, "workloads", tiny()) }
func BenchmarkPhy(b *testing.B)               { benchExperiment(b, "phy", tiny()) }
func BenchmarkPrivacy(b *testing.B)           { benchExperiment(b, "privacy", tiny()) }

// --- Engine micro-benchmarks: single sessions at case-I scale ---

func benchSession(b *testing.B, alg, det string) {
	b.Helper()
	cfg := rfid.Config{
		Tags: 50, FrameSize: 30, Algorithm: alg, Detector: det, Strength: 8,
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := rfid.RunRound(cfg, uint64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSessionFSAQCD(b *testing.B)   { benchSession(b, rfid.AlgFSA, rfid.DetQCD) }
func BenchmarkSessionFSACRCCD(b *testing.B) { benchSession(b, rfid.AlgFSA, rfid.DetCRCCD) }
func BenchmarkSessionBTQCD(b *testing.B)    { benchSession(b, rfid.AlgBT, rfid.DetQCD) }
func BenchmarkSessionBTCRCCD(b *testing.B)  { benchSession(b, rfid.AlgBT, rfid.DetCRCCD) }
func BenchmarkSessionQTQCD(b *testing.B)    { benchSession(b, rfid.AlgQT, rfid.DetQCD) }
func BenchmarkSessionGen2QQCD(b *testing.B) { benchSession(b, rfid.AlgQAdaptive, rfid.DetQCD) }

// Parallel Monte-Carlo scaling: the same workload across worker counts.
func benchParallel(b *testing.B, workers int) {
	cfg := rfid.Config{
		Tags: 200, FrameSize: 120, Algorithm: rfid.AlgFSA,
		Detector: rfid.DetQCD, Rounds: 16, Workers: workers, Seed: 1,
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := rfid.Run(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMonteCarlo1Worker(b *testing.B) { benchParallel(b, 1) }
func BenchmarkMonteCarlo4Worker(b *testing.B) { benchParallel(b, 4) }
func BenchmarkMonteCarlo8Worker(b *testing.B) { benchParallel(b, 8) }
