package aloha

import (
	"math"
	"slices"
	"testing"

	"repro/internal/detect"
	"repro/internal/metrics"
	"repro/internal/prng"
	"repro/internal/signal"
)

// statSessionInvariants checks the bookkeeping identities every
// stat-mode session must satisfy for n tags under a model with an ID
// phase of extra bits.
func statSessionInvariants(t *testing.T, s *metrics.Session, n int, model StatModel) {
	t.Helper()
	if s.TagsIdentified != int64(n) {
		t.Errorf("TagsIdentified = %d, want %d", s.TagsIdentified, n)
	}
	if len(s.DelaysMicros) != n {
		t.Errorf("len(DelaysMicros) = %d, want %d", len(s.DelaysMicros), n)
	}
	// Every tag is identified in exactly one true-single slot.
	if s.Census.Single != int64(n) {
		t.Errorf("Census.Single = %d, want %d", s.Census.Single, n)
	}
	d := s.Detection
	if d.DetectedCollided+d.FalseSingle != d.TrueCollided {
		t.Errorf("detection tallies inconsistent: %d + %d != %d", d.DetectedCollided, d.FalseSingle, d.TrueCollided)
	}
	if d.TrueCollided != s.Census.Collided {
		t.Errorf("TrueCollided = %d, want Census.Collided = %d", d.TrueCollided, s.Census.Collided)
	}
	if d.Phantom != d.FalseSingle {
		t.Errorf("Phantom = %d, want FalseSingle = %d (every stat false single is a phantom)", d.Phantom, d.FalseSingle)
	}
	// Airtime identity: every slot pays contention, every declared single
	// (true or false) pays the ID phase.
	declared := int64(n) + d.FalseSingle
	wantBits := s.Census.Slots()*int64(model.ContentionBits) + declared*int64(model.IDPhaseBits)
	if s.Bits != wantBits {
		t.Errorf("Bits = %d, want %d", s.Bits, wantBits)
	}
	if got, want := s.TimeMicros, float64(s.Bits)*tm.TauMicros; got != want {
		t.Errorf("TimeMicros = %v, want %v", got, want)
	}
	// Delays are recorded in slot order within a monotone clock.
	prev := 0.0
	for i, d := range s.DelaysMicros {
		if d < prev {
			t.Fatalf("delay %d = %v decreased below %v", i, d, prev)
		}
		prev = d
	}
	if prev > s.TimeMicros {
		t.Errorf("last delay %v exceeds session time %v", prev, s.TimeMicros)
	}
}

func TestRunFSAStatInvariants(t *testing.T) {
	model := StatModel{Name: "QCD-4", ContentionBits: 8, IDPhaseBits: 64, Strength: 4}
	s := Stat(400, model, tm, prng.New(5), Options{}).FSA(NewFixed(256))
	statSessionInvariants(t, s, 400, model)
	if s.Census.Frames < 2 {
		t.Errorf("Frames = %d, want several", s.Census.Frames)
	}
}

func TestRunFSAStatConfirmEmpty(t *testing.T) {
	model := StatModel{Name: "oracle", ContentionBits: 1, IDPhaseBits: 64, MissExp: -1}
	withOut := Stat(100, model, tm, prng.New(9), Options{}).FSA(NewFixed(64))
	with := Stat(100, model, tm, prng.New(9), Options{ConfirmEmpty: true}).FSA(NewFixed(64))
	if with.Census.Frames <= withOut.Census.Frames {
		t.Errorf("ConfirmEmpty did not add a trailing frame: %d vs %d", with.Census.Frames, withOut.Census.Frames)
	}
	// The confirm frame(s) contain only idle slots.
	if with.Census.Single != withOut.Census.Single || with.TagsIdentified != 100 {
		t.Error("ConfirmEmpty changed identification results")
	}
}

func TestRunEDFSAStatInvariants(t *testing.T) {
	model := StatModel{Name: "CRC-CD/CRC-32", ContentionBits: 96, IDPhaseBits: 0, MissExp: 32}
	s := Stat(700, model, tm, prng.New(21), Options{}).EDFSA(EDFSAConfig{MaxFrame: 128})
	statSessionInvariants(t, s, 700, model)
}

func TestRunQAdaptiveStatInvariants(t *testing.T) {
	model := StatModel{Name: "QCD-8", ContentionBits: 16, IDPhaseBits: 64, Strength: 8}
	s := Stat(300, model, tm, prng.New(33), Options{}).QAdaptive(DefaultQConfig())
	statSessionInvariants(t, s, 300, model)
}

// TestStatMatchesExactMeans is a coarse distribution check at the driver
// level (the KS harness in internal/sim is the rigorous one): for every
// policy the drivers serve, across enough rounds, the stat backend's mean
// slot count must land within a few percent of the exact backend's on the
// same workload.
func TestStatMatchesExactMeans(t *testing.T) {
	const n, f, rounds = 200, 128, 60
	det := detect.NewQCD(8, 64)
	model := StatModel{Name: "QCD-8", ContentionBits: 16, IDPhaseBits: 64, Strength: 8}
	for _, c := range []struct {
		name string
		run  func(*Backend) *metrics.Session
	}{
		{"fixed", func(b *Backend) *metrics.Session { return b.FSA(NewFixed(f)) }},
		{"schoute", func(b *Backend) *metrics.Session { return b.FSA(NewSchoute(f)) }},
		{"lowerbound", func(b *Backend) *metrics.Session { return b.FSA(NewLowerBound(f)) }},
		{"optimal", func(b *Backend) *metrics.Session { return b.FSA(Optimal{N: n}) }},
		{"edfsa", func(b *Backend) *metrics.Session { return b.EDFSA(EDFSAConfig{MaxFrame: f}) }},
		{"qadaptive", func(b *Backend) *metrics.Session { return b.QAdaptive(DefaultQConfig()) }},
	} {
		t.Run(c.name, func(t *testing.T) {
			var exactSlots, statSlots float64
			rng := prng.New(77)
			for r := 0; r < rounds; r++ {
				exactSlots += float64(c.run(Exact(pop(n, uint64(r)+1), det, tm, Options{})).Census.Slots())
				statSlots += float64(c.run(Stat(n, model, tm, rng, Options{})).Census.Slots())
			}
			exactSlots /= rounds
			statSlots /= rounds
			if rel := math.Abs(exactSlots-statSlots) / exactSlots; rel > 0.05 {
				t.Errorf("mean slots diverge: exact %.1f vs stat %.1f (%.1f%%)", exactSlots, statSlots, 100*rel)
			}
		})
	}
}

// TestStatObserveFeed checks the audit hook sees exactly the non-idle
// slots with consistent verdicts.
func TestStatObserveFeed(t *testing.T) {
	model := StatModel{Name: "QCD-2", ContentionBits: 4, IDPhaseBits: 64, Strength: 2}
	var singles, falseSingles, detected int64
	obs := func(truth, declared signal.SlotType, m int) {
		switch {
		case truth == signal.Single && declared == signal.Single && m == 1:
			singles++
		case truth == signal.Collided && declared == signal.Single && m > 1:
			falseSingles++
		case truth == signal.Collided && declared == signal.Collided && m > 1:
			detected++
		default:
			t.Fatalf("impossible observation: truth=%v declared=%v m=%d", truth, declared, m)
		}
	}
	s := Stat(300, model, tm, prng.New(4), Options{Observe: obs}).FSA(NewFixed(128))
	if singles != s.Census.Single {
		t.Errorf("observed %d singles, session says %d", singles, s.Census.Single)
	}
	if falseSingles != s.Detection.FalseSingle || detected != s.Detection.DetectedCollided {
		t.Errorf("observed (%d,%d) false/detected, session says (%d,%d)",
			falseSingles, detected, s.Detection.FalseSingle, s.Detection.DetectedCollided)
	}
	if falseSingles == 0 {
		t.Error("QCD-2 over 300 tags should produce false singles")
	}
}

// TestStatScratchReuse pins that a pooled scratch (session included) produces
// the same results as fresh ones for the same seed (scratch contents
// must never leak into results).
func TestStatScratchReuse(t *testing.T) {
	model := StatModel{Name: "QCD-8", ContentionBits: 16, IDPhaseBits: 64, Strength: 8}
	var sc Scratch
	run := func(opt Options, seed uint64) metrics.Census {
		rng := prng.New(seed)
		return Stat(250, model, tm, rng, opt).QAdaptive(DefaultQConfig()).Census
	}
	for _, seed := range []uint64{1, 2, 3} {
		fresh := run(Options{}, seed)
		pooled := run(Options{Scratch: &sc}, seed)
		if fresh != pooled {
			t.Fatalf("seed %d: pooled census %+v != fresh %+v", seed, pooled, fresh)
		}
	}
}

// qAdaptiveStatReference is RunQAdaptiveStat in its plain form: one
// Binomial(R, 1/(slots left)) per visited slot with the constants
// recomputed, math.Round for the QueryAdjust test and math.Max/Min
// clamps. The slot-law table must reproduce it bit for bit.
func qAdaptiveStatReference(n int, model StatModel, cfg QConfig, rng *prng.Source) *metrics.Session {
	s := &metrics.Session{}
	cb, extra := int64(model.ContentionBits), int64(model.IDPhaseBits)
	remaining, qfp := n, cfg.InitialQ
	var bits int64
	for remaining > 0 {
		q := int(math.Round(qfp))
		s.Census.Frames++
		frameSlots := 1 << uint(q)
		active := remaining
		for slot := 0; slot < frameSlots && remaining > 0; slot++ {
			m := rng.Binomial(active, 1/float64(frameSlots-slot))
			active -= m
			bits += cb
			switch {
			case m == 0:
				s.Census.Idle++
				qfp = math.Max(0, qfp-cfg.C)
			case m == 1:
				bits += extra
				s.Census.Single++
				s.TagsIdentified++
				s.AddDelay(float64(bits) * tm.TauMicros)
				remaining--
			default:
				s.Census.Collided++
				s.Detection.TrueCollided++
				e := model.missExponent(m)
				if model.canMiss() && e >= 0 && e < 64 && rng.Uint64() < 1<<uint(64-e) {
					bits += extra
					s.Detection.FalseSingle++
					s.Detection.Phantom++
				} else {
					s.Detection.DetectedCollided++
				}
				qfp = math.Min(cfg.MaxQ, qfp+cfg.C)
			}
			if int(math.Round(qfp)) != q {
				break
			}
		}
	}
	s.Bits = bits
	s.TimeMicros = float64(bits) * tm.TauMicros
	return s
}

// TestQAdaptiveStatMatchesReference pins RunQAdaptiveStat to the plain
// per-slot formulation: table rows and the laws past them, a Q step
// that lands on q±0.5 exactly, Q_fp held at a MaxQ of 6.2, and q above
// the table (70000 tags under MaxQ 18).
func TestQAdaptiveStatMatchesReference(t *testing.T) {
	models := []StatModel{
		{Name: "QCD-4", ContentionBits: 16, IDPhaseBits: 64, Strength: 4},
		{Name: "CRC-CD", ContentionBits: 96, MissExp: 32},
		{Name: "oracle", ContentionBits: 64, MissExp: -1},
	}
	cfgs := []QConfig{DefaultQConfig(), {InitialQ: 2.5, C: 0.5, MaxQ: 18}, {InitialQ: 0, C: 0.1, MaxQ: 15}, {InitialQ: 4, C: 0.3, MaxQ: 6.2}}
	var sc Scratch
	for _, n := range []int{1, 64, 500, 70000} {
		for ci, cfg := range cfgs {
			for mi, model := range models {
				if n == 70000 && (ci != 1 || mi != 0) {
					continue // one large session covers q > 15
				}
				seed := uint64(n*100 + ci*10 + mi)
				refRng, rng := prng.New(seed), prng.New(seed)
				want := qAdaptiveStatReference(n, model, cfg, refRng)
				got := Stat(n, model, tm, rng, Options{Scratch: &sc}).QAdaptive(cfg)
				if got.Census != want.Census || got.Detection != want.Detection || got.Bits != want.Bits ||
					got.TimeMicros != want.TimeMicros || got.TagsIdentified != want.TagsIdentified ||
					!slices.Equal(got.DelaysMicros, want.DelaysMicros) || got.DelayFold() != want.DelayFold() ||
					rng.Uint64() != refRng.Uint64() {
					t.Fatalf("n=%d cfg=%+v model=%s: session diverged from the per-slot reference", n, cfg, model.Name)
				}
			}
		}
	}
}

// TestSlotLawTable pins every table row, built in either order, to
// prng.NewSlotLaw of the slots left, and q past the table to no row.
func TestSlotLawTable(t *testing.T) {
	var sc Scratch
	for _, q := range []int{15, 0, 7, 1, 6, 14, 2, 3, 4, 5, 8, 9, 10, 11, 12, 13, 7, 15} {
		row := sc.stat.slotLaws(q)
		if want := min(slotLawSlots, 1<<q); len(row) != want {
			t.Fatalf("q=%d: row length %d, want %d", q, len(row), want)
		}
		for slot, law := range row {
			if law != prng.NewSlotLaw(1<<q-slot) {
				t.Fatalf("q=%d slot=%d: law is not NewSlotLaw(%d)", q, slot, 1<<q-slot)
			}
		}
	}
	if row := sc.stat.slotLaws(slotLawQs); row != nil {
		t.Errorf("q=%d: got a %d-law row past the table", slotLawQs, len(row))
	}
}
