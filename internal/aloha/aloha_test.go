package aloha

import (
	"math"
	"sort"
	"testing"

	"repro/internal/crc"
	"repro/internal/detect"
	"repro/internal/metrics"
	"repro/internal/prng"
	"repro/internal/signal"
	"repro/internal/tagmodel"
	"repro/internal/timing"
)

var tm = timing.Model{TauMicros: 1}

func pop(n int, seed uint64) tagmodel.Population {
	return tagmodel.NewPopulation(n, 64, prng.New(seed))
}

func TestRunIdentifiesEveryone(t *testing.T) {
	for _, det := range []detect.Detector{
		detect.NewQCD(8, 64),
		detect.NewCRCCD(crc.CRC32IEEE, 64),
		detect.NewOracle(1, 64),
	} {
		p := pop(200, 1)
		s := Exact(p, det, tm, Options{}).FSA(NewFixed(100))
		if !p.AllIdentified() {
			t.Fatalf("%s: tags left unidentified", det.Name())
		}
		if s.TagsIdentified != 200 {
			t.Errorf("%s: identified %d", det.Name(), s.TagsIdentified)
		}
		if s.Census.Single < 200 {
			t.Errorf("%s: single slots %d < tags", det.Name(), s.Census.Single)
		}
		if len(s.DelaysMicros) != 200 {
			t.Errorf("%s: %d delays", det.Name(), len(s.DelaysMicros))
		}
	}
}

func TestSingleTag(t *testing.T) {
	p := pop(1, 2)
	s := Exact(p, detect.NewQCD(8, 64), tm, Options{}).FSA(NewFixed(1))
	if s.Census.Slots() != 1 || s.Census.Single != 1 {
		t.Errorf("census = %+v", s.Census)
	}
	if s.TimeMicros != 80 { // 16-bit preamble + 64-bit ID at τ=1
		t.Errorf("time = %v", s.TimeMicros)
	}
}

func TestThroughputNearOptimum(t *testing.T) {
	// Lemma 1: with F = n the per-frame throughput approaches 1/e; the
	// whole-session throughput of the clairvoyant Optimal policy stays
	// close to it.
	p := pop(2000, 3)
	s := Exact(p, detect.NewOracle(1, 64), tm, Options{}).FSA(Optimal{N: 2000})
	got := s.Census.Throughput()
	if math.Abs(got-1/math.E) > 0.03 {
		t.Errorf("optimal-policy throughput = %.4f, want ≈ %.4f", got, 1/math.E)
	}
}

func TestThroughputNeverExceedsLemma1Bound(t *testing.T) {
	for seed := uint64(0); seed < 5; seed++ {
		p := pop(500, 10+seed)
		s := Exact(p, detect.NewOracle(1, 64), tm, Options{}).FSA(Optimal{N: 500})
		if s.Census.Throughput() > 0.45 {
			t.Errorf("seed %d: throughput %.3f grossly exceeds 1/e", seed, s.Census.Throughput())
		}
	}
}

func TestConstantFrameMatchesTable7Shape(t *testing.T) {
	// Table VII case I: 50 tags, F=30 gives ~6 frames, 50 single slots and
	// λ ≈ 0.25. The paper prints idle=39/collided=110, but its own
	// cases II–IV all have collided/n ≈ 0.79 and growing idle/n, so the
	// case-I columns are swapped: the real shape is ~110 idle (including
	// the reader's trailing all-idle confirmation frame) and ~39 collided.
	var idle, collided, frames, slots float64
	const rounds = 20
	for r := 0; r < rounds; r++ {
		p := pop(50, 100+uint64(r))
		s := Exact(p, detect.NewCRCCD(crc.CRC32IEEE, 64), tm, Options{ConfirmEmpty: true}).FSA(NewFixed(30))
		idle += float64(s.Census.Idle)
		collided += float64(s.Census.Collided)
		frames += float64(s.Census.Frames)
		slots += float64(s.Census.Slots())
	}
	idle /= rounds
	collided /= rounds
	frames /= rounds
	slots /= rounds
	throughput := 50 / slots
	if math.Abs(throughput-0.25) > 0.05 {
		t.Errorf("case-I throughput = %.3f, paper reports 0.25", throughput)
	}
	if frames < 4 || frames > 10 {
		t.Errorf("case-I frames = %.1f, paper reports ~6", frames)
	}
	if idle < 80 || idle > 145 {
		t.Errorf("case-I idle = %.1f, want ~110 (paper's swapped column)", idle)
	}
	if collided < 25 || collided > 60 {
		t.Errorf("case-I collided = %.1f, want ~39 (paper's swapped column)", collided)
	}
}

func TestConfirmEmptyAddsOneIdleFrame(t *testing.T) {
	p := pop(100, 300)
	s1 := Exact(p, detect.NewQCD(8, 64), tm, Options{}).FSA(NewFixed(100))
	p2 := pop(100, 300)
	s2 := Exact(p2, detect.NewQCD(8, 64), tm, Options{ConfirmEmpty: true}).FSA(NewFixed(100))
	if s2.Census.Frames != s1.Census.Frames+1 {
		t.Errorf("frames %d vs %d, want exactly one extra", s2.Census.Frames, s1.Census.Frames)
	}
	if s2.Census.Idle != s1.Census.Idle+100 {
		t.Errorf("idle %d vs %d, want exactly F more", s2.Census.Idle, s1.Census.Idle)
	}
	if s2.Census.Single != s1.Census.Single || s2.Census.Collided != s1.Census.Collided {
		t.Error("confirmation frame changed non-idle counts")
	}
}

func TestSchoutePolicyConverges(t *testing.T) {
	p := pop(1000, 4)
	s := Exact(p, detect.NewOracle(1, 64), tm, Options{}).FSA(NewSchoute(100))
	if !p.AllIdentified() {
		t.Fatal("Schoute policy failed to identify everyone")
	}
	// Dynamic sizing should beat a badly fixed frame on slot count.
	p2 := pop(1000, 4)
	fixed := Exact(p2, detect.NewOracle(1, 64), tm, Options{}).FSA(NewFixed(100))
	if s.Census.Slots() >= fixed.Census.Slots() {
		t.Errorf("Schoute (%d slots) not better than fixed-100 (%d slots)",
			s.Census.Slots(), fixed.Census.Slots())
	}
}

func TestLowerBoundPolicy(t *testing.T) {
	p := pop(300, 5)
	s := Exact(p, detect.NewQCD(8, 64), tm, Options{}).FSA(NewLowerBound(50))
	if !p.AllIdentified() || s.TagsIdentified != 300 {
		t.Fatal("lower-bound policy failed")
	}
}

func TestQCDFasterThanCRCCD(t *testing.T) {
	// The headline claim on FSA: QCD saves > 40% identification time.
	var tQCD, tCRC float64
	const rounds = 10
	for r := uint64(0); r < rounds; r++ {
		p1 := pop(500, 200+r)
		tQCD += Exact(p1, detect.NewQCD(8, 64), tm, Options{}).FSA(NewFixed(300)).TimeMicros
		p2 := pop(500, 200+r)
		tCRC += Exact(p2, detect.NewCRCCD(crc.CRC32IEEE, 64), tm, Options{}).FSA(NewFixed(300)).TimeMicros
	}
	ei := (tCRC - tQCD) / tCRC
	if ei < 0.40 {
		t.Errorf("EI on FSA = %.3f, paper promises > 0.40", ei)
	}
	if ei > 0.90 {
		t.Errorf("EI on FSA = %.3f suspiciously high", ei)
	}
}

func TestDelaysAreMonotoneReasonable(t *testing.T) {
	p := pop(100, 6)
	s := Exact(p, detect.NewQCD(8, 64), tm, Options{}).FSA(NewFixed(100))
	for _, d := range s.DelaysMicros {
		if d <= 0 || d > s.TimeMicros {
			t.Fatalf("delay %v outside (0, %v]", d, s.TimeMicros)
		}
	}
}

func TestFixedPolicyValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("frame size 0 accepted")
		}
	}()
	NewFixed(0)
}

func TestPolicyNames(t *testing.T) {
	if NewFixed(30).Name() != "fixed-30" {
		t.Error("fixed name")
	}
	if NewSchoute(1).Name() != "schoute" || NewLowerBound(1).Name() != "lowerbound" {
		t.Error("dynamic names")
	}
	if (Optimal{N: 5}).Name() != "optimal" {
		t.Error("optimal name")
	}
}

func TestNextFramePositive(t *testing.T) {
	// Policies must stay positive even on a census with no collisions.
	empty := FrameCensus{Size: 10, Idle: 10}
	if NewSchoute(5).NextFrame(empty) < 1 {
		t.Error("Schoute returned non-positive frame")
	}
	if NewLowerBound(5).NextFrame(empty) < 1 {
		t.Error("LowerBound returned non-positive frame")
	}
	if (Optimal{}).NextFrame(empty) < 1 {
		t.Error("Optimal returned non-positive frame")
	}
}

func TestSlotLogRetimesToOriginal(t *testing.T) {
	p := pop(150, 400)
	det := detect.NewQCD(8, 64)
	s := Exact(p, det, tm, Options{KeepSlotLog: true}).FSA(NewFixed(100))
	log := s.SlotLog()
	if len(log) == 0 {
		t.Fatal("no slot log recorded")
	}
	if err := metrics.ValidateLog(log, s.Census); err != nil {
		t.Fatal(err)
	}
	// Retiming under the original per-type bit costs must reproduce the
	// session's time and delays exactly.
	bitsOf := func(typ signal.SlotType) int { return detect.SlotBits(det, typ) }
	total, delays := metrics.Retime(log, metrics.ProportionalCost(bitsOf, tm.TauMicros))
	if math.Abs(total-s.TimeMicros) > 1e-9 {
		t.Errorf("retimed total %v != session %v", total, s.TimeMicros)
	}
	if len(delays) != len(s.DelaysMicros) {
		t.Fatalf("retimed %d delays, session has %d", len(delays), len(s.DelaysMicros))
	}
	// Identification order is slot order in both records.
	sorted := append([]float64(nil), s.DelaysMicros...)
	sort.Float64s(sorted)
	for i := range delays {
		if math.Abs(delays[i]-sorted[i]) > 1e-9 {
			t.Fatalf("retimed delay %d = %v, session %v", i, delays[i], sorted[i])
		}
	}
}

func TestDeterministicGivenSeed(t *testing.T) {
	run := func() (int64, float64) {
		p := pop(200, 77)
		s := Exact(p, detect.NewQCD(8, 64), tm, Options{}).FSA(NewFixed(100))
		return s.Census.Slots(), s.TimeMicros
	}
	s1, t1 := run()
	s2, t2 := run()
	if s1 != s2 || t1 != t2 {
		t.Error("identical seeds produced different sessions")
	}
}

// TestSchouteMultiplierIsCollidedSlotMean pins SchouteMultiplier to what
// it estimates: the expected tag count of a collided slot in a frame
// loaded at one tag per slot. A slot's count is Poisson(1) there, so the
// mean over counts m ≥ 2 is (e−1)/(e−2) ≈ 2.392 — the value CSCT-style
// readers use as their estimator_multiplier (SNIPPETS.md, snippet 2).
// The constant carries the literature's two decimals, which every
// golden depends on, so it must equal the closed form rounded to 0.01.
func TestSchouteMultiplierIsCollidedSlotMean(t *testing.T) {
	closed := (math.E - 1) / (math.E - 2)
	var mass, mean float64
	p := math.Exp(-1) // Poisson(1) P(m) for m = 0, updated in the loop
	for m := 1; m < 40; m++ {
		p /= float64(m)
		if m >= 2 {
			mass += p
			mean += float64(m) * p
		}
	}
	if got := mean / mass; math.Abs(got-closed) > 1e-12 {
		t.Fatalf("Poisson(1) collided-slot mean %.6f, closed form %.6f", got, closed)
	}
	if math.Round(closed*100)/100 != SchouteMultiplier || math.Abs(SchouteMultiplier-closed) > 5e-3 {
		t.Errorf("SchouteMultiplier = %v, want (e−1)/(e−2) = %.4f to two decimals", SchouteMultiplier, closed)
	}
}
