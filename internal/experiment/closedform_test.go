package experiment

import (
	"math"
	"testing"

	"repro/internal/air"
	"repro/internal/aloha"
	"repro/internal/analytic"
	"repro/internal/btree"
	"repro/internal/crc"
	"repro/internal/detect"
	"repro/internal/epc"
	"repro/internal/metrics"
	"repro/internal/prng"
	"repro/internal/signal"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/tagmodel"
	"repro/internal/timing"
)

// Numeric assertions of the paper's closed forms against the simulator,
// beside the shape tests in experiment_test.go. Tolerances are σ-derived at a fixed seed
// and round count, never hand-tuned.

// firstFrameAccuracy runs the first FSA frame of n tags over f slots
// through the slot engine, rounds times, and returns how many slots were
// truly collided and how many of those QCD-strength flagged.
func firstFrameAccuracy(strength, n, f, rounds int, seed uint64) (collided, detected int) {
	det := detect.NewQCD(strength, epc.IDBits)
	seeds := prng.New(seed)
	var sc air.SlotScratch
	buckets := make([][]*tagmodel.Tag, f)
	for r := 0; r < rounds; r++ {
		for i := range buckets {
			buckets[i] = buckets[i][:0]
		}
		for _, t := range tagmodel.NewPopulation(n, epc.IDBits, prng.New(seeds.Uint64())) {
			i := t.Rng.Intn(f)
			buckets[i] = append(buckets[i], t)
		}
		for _, b := range buckets {
			o := sc.RunSlot(det, b, 0, 1)
			if o.Truth == signal.Collided {
				collided++
				if o.Declared == signal.Collided {
					detected++
				}
			}
		}
	}
	return collided, detected
}

// TestFigure5AccuracyMatchesClosedForm checks measured QCD accuracy at
// l = 4 and l = 8 against analytic.ExpectedQCDAccuracy, whose model is
// the first frame's binomial slot occupancy: each collided slot is a
// Bernoulli trial, so the measured rate must sit within 3σ of the
// binomial interval around the closed form.
func TestFigure5AccuracyMatchesClosedForm(t *testing.T) {
	c := epc.PaperCases()[1] // case II: 500 tags, F = 300
	const rounds = 400
	for _, l := range []int{4, 8} {
		collided, detected := firstFrameAccuracy(l, c.Tags, c.Slots, rounds, 1)
		want := analytic.ExpectedQCDAccuracy(l, float64(c.Tags), float64(c.Slots))
		got := float64(detected) / float64(collided)
		sigma := math.Sqrt(want * (1 - want) / float64(collided))
		t.Logf("QCD-%d: accuracy %.5f over %d collided slots, closed form %.5f, σ %.5f", l, got, collided, want, sigma)
		if math.Abs(got-want) > 3*sigma {
			t.Errorf("QCD-%d accuracy over %d collided slots = %.5f, closed form %.5f ± %.5f (3σ)",
				l, collided, got, want, 3*sigma)
		}
	}
}

// TestLemma1FirstFrameMatchesClosedForm checks the first FSA frame — the
// frame Lemma 1 models, n tags each picking one of F slots — against
// analytic.FSAExpectedCensus on both slot backends. Frame 0's census
// comes from the frame hook; each count must sit within 3σ of the round
// mean. The frame's ground truth does not depend on the detector, so the
// oracle keeps the sessions cheap.
func TestLemma1FirstFrameMatchesClosedForm(t *testing.T) {
	const rounds = 1000
	det := detect.NewOracle(1, epc.IDBits)
	model := aloha.StatModel{Name: "oracle", ContentionBits: 1, IDPhaseBits: epc.IDBits, MissExp: -1}
	for _, c := range []struct{ n, f int }{{64, 64}, {128, 64}} {
		wantIdle, wantSingle, wantCollided := analytic.FSAExpectedCensus(float64(c.n), float64(c.f))
		for _, mode := range []string{sim.ModeExact, sim.ModeStat} {
			var idle, single, collided stats.Accumulator
			opt := aloha.Options{FrameHook: func(fi metrics.FrameInfo) {
				if fi.Index == 0 {
					idle.Add(float64(fi.Idle))
					single.Add(float64(fi.Single))
					collided.Add(float64(fi.Collided))
				}
			}}
			seeds, rng := prng.New(1), prng.New(2)
			for r := 0; r < rounds; r++ {
				var b *aloha.Backend
				if mode == sim.ModeStat {
					b = aloha.Stat(c.n, model, timing.Default, rng, opt)
				} else {
					pop := tagmodel.NewPopulation(c.n, epc.IDBits, prng.New(seeds.Uint64()))
					b = aloha.Exact(pop, det, timing.Default, opt)
				}
				b.FSA(aloha.NewFixed(c.f))
			}
			for _, m := range []struct {
				name string
				got  *stats.Accumulator
				want float64
			}{{"idle", &idle, wantIdle}, {"single", &single, wantSingle}, {"collided", &collided, wantCollided}} {
				sigma := m.got.StdDev() / math.Sqrt(float64(m.got.N()))
				if m.got.N() != rounds || math.Abs(m.got.Mean()-m.want) > 3*sigma {
					t.Errorf("%s n=%d F=%d: first-frame %s %.3f over %d frames, Lemma 1 %.3f ± %.3f (3σ)",
						mode, c.n, c.f, m.name, m.got.Mean(), m.got.N(), m.want, 3*sigma)
				}
			}
		}
	}
}

// TestLemma2SlotsMatchClosedForm checks BT slots per tag against
// analytic.BTExpectedSlots (Lemma 2, 2.885n) within 3σ of the round
// mean. It runs the exact engine under the oracle and under QCD-16,
// whose 2^-16 miss rate keeps Lemma 2's perfect-detection model valid.
func TestLemma2SlotsMatchClosedForm(t *testing.T) {
	c := epc.PaperCases()[1]
	for _, det := range []string{sim.DetOracle, sim.DetQCD} {
		agg, err := sim.Run(sim.Config{
			Tags: c.Tags, IDBits: epc.IDBits, Seed: 1, Rounds: 200,
			Algorithm: sim.AlgBT, Detector: det, Strength: 16,
		})
		if err != nil {
			t.Fatal(err)
		}
		want, _, _, _ := analytic.BTExpectedSlots(float64(c.Tags))
		sigma := agg.Slots.StdDev() / math.Sqrt(float64(agg.Slots.N()))
		t.Logf("BT/%s: %.2f slots per %d tags, Lemma 2 %.1f, σ %.2f", det, agg.Slots.Mean(), c.Tags, want, sigma)
		if got := agg.Slots.Mean(); math.Abs(got-want) > 3*sigma {
			t.Errorf("BT/%s: %.1f slots per %d tags, Lemma 2 %.1f ± %.1f (3σ)", det, got, c.Tags, want, 3*sigma)
		}
	}
}

// slotPathDetector hides a detector's concrete type, so air runs its
// slots on the generic path instead of the word kernel.
type slotPathDetector struct{ detect.Detector }

// btTimes runs rounds BT inventories of n tags under det on the exact
// engine and accumulates each round's TimeMicros.
func btTimes(det detect.Detector, n, rounds int, seed uint64) *stats.Accumulator {
	var acc stats.Accumulator
	seeds := prng.New(seed)
	for r := 0; r < rounds; r++ {
		pop := tagmodel.NewPopulation(n, epc.IDBits, prng.New(seeds.Uint64()))
		acc.Add(btree.Run(pop, det, timing.Default).TimeMicros)
	}
	return &acc
}

// TestBTTimeMatchesClosedForm checks BT transmission time against
// Section V-B at Lemma 2's configuration (case II, 200 rounds, seed 1):
// the mean TimeMicros under CRC-CD against analytic.BTTimeCRC, under
// QCD-16 against analytic.BTTimeQCD, and the efficiency improvement
// 1 − t_qcd/t_crc of the two means against analytic.BTEI. Each must sit
// within 3σ of the round mean; the EI's σ is propagated from the two
// means' (the runs are independent). Both slot paths run it: the word
// kernel and the generic path, whose ID phase follows a slot declared
// single whenever IDPhaseBits > 0.
func TestBTTimeMatchesClosedForm(t *testing.T) {
	c := epc.PaperCases()[1]
	const rounds, strength = 200, 16
	n, l, tau := float64(c.Tags), analytic.PaperLengths(strength), timing.Default.TauMicros
	for _, path := range []struct {
		name string
		wrap func(detect.Detector) detect.Detector
	}{
		{"kernel", func(d detect.Detector) detect.Detector { return d }},
		{"generic", func(d detect.Detector) detect.Detector { return slotPathDetector{d} }},
	} {
		crcT := btTimes(path.wrap(detect.NewCRCCD(crc.CRC32IEEE, epc.IDBits)), c.Tags, rounds, 1)
		qcdT := btTimes(path.wrap(detect.NewQCD(strength, epc.IDBits)), c.Tags, rounds, 1)
		sem := func(a *stats.Accumulator) float64 { return a.StdDev() / math.Sqrt(float64(a.N())) }
		for _, m := range []struct {
			name string
			got  *stats.Accumulator
			want float64
		}{{"CRC-CD", crcT, analytic.BTTimeCRC(n, l, tau)}, {"QCD-16", qcdT, analytic.BTTimeQCD(n, l, tau)}} {
			sigma := sem(m.got)
			t.Logf("%s BT/%s: %.0f μs per %d tags, closed form %.0f, σ %.0f", path.name, m.name, m.got.Mean(), c.Tags, m.want, sigma)
			if math.Abs(m.got.Mean()-m.want) > 3*sigma {
				t.Errorf("%s BT/%s: %.0f μs per %d tags, closed form %.0f ± %.0f (3σ)", path.name, m.name, m.got.Mean(), c.Tags, m.want, 3*sigma)
			}
		}
		tc, tq := crcT.Mean(), qcdT.Mean()
		ei, want := 1-tq/tc, analytic.BTEI(l)
		sigma := math.Hypot(sem(qcdT)/tc, tq*sem(crcT)/(tc*tc))
		t.Logf("%s BT: EI %.5f, closed form %.5f, σ %.5f", path.name, ei, want, sigma)
		if math.Abs(ei-want) > 3*sigma {
			t.Errorf("%s BT: EI %.5f, closed form %.5f ± %.5f (3σ)", path.name, ei, want, 3*sigma)
		}
	}
}

// btGroupShare is the closed-form share of BT's collided slots that
// carry m ≥ 2 responders: Lemma 2's 1.443n collided slots are
// Σ_{m≥2} n / (ln 2 · m(m−1)) collided groups of size m (Hush & Wood's
// splitting-tree law; Σ 1/(m(m−1)) = 1 gives n / ln 2), so the share is
// 1/(m(m−1)).
func btGroupShare(m int) float64 { return 1 / float64(m*(m-1)) }

// TestBTAccuracyMatchesClosedForm checks measured QCD accuracy under BT
// at l = 4 and l = 8 against the group-size law behind Lemma 2: a
// collided group of m misses with probability 2^-l(m-1)
// (analytic.QCDMissProbability). The law itself is first checked to
// reproduce Lemma 2's collided and idle constants (an m-group splits
// empty with probability 2^(1-m)). The tolerance is 3σ of the round
// mean.
func TestBTAccuracyMatchesClosedForm(t *testing.T) {
	var collided, idle float64
	for m := 2; m <= 1<<20; m++ { // the collided sum's tail is 1/m
		collided += btGroupShare(m) / math.Ln2
		if m < 64 {
			idle += btGroupShare(m) / math.Ln2 * math.Pow(2, float64(1-m))
		}
	}
	if math.Abs(collided-analytic.BTCollidedPerTag) > 1e-3 || math.Abs(idle-analytic.BTIdlePerTag) > 1e-3 {
		t.Fatalf("group-size law gives %.4f collided and %.4f idle per tag, Lemma 2 %.3f and %.3f",
			collided, idle, analytic.BTCollidedPerTag, analytic.BTIdlePerTag)
	}
	c := epc.PaperCases()[1]
	for _, l := range []int{4, 8} {
		agg, err := sim.Run(sim.Config{
			Tags: c.Tags, IDBits: epc.IDBits, Seed: 1, Rounds: 200,
			Algorithm: sim.AlgBT, Detector: sim.DetQCD, Strength: l,
		})
		if err != nil {
			t.Fatal(err)
		}
		want := 1.0
		for m := 2; m < 64; m++ {
			want -= btGroupShare(m) * analytic.QCDMissProbability(l, m)
		}
		got := agg.Accuracy.Mean()
		sigma := agg.Accuracy.StdDev() / math.Sqrt(float64(agg.Accuracy.N()))
		t.Logf("BT/QCD-%d: accuracy %.5f, closed form %.5f, σ %.5f", l, got, want, sigma)
		if math.Abs(got-want) > 3*sigma {
			t.Errorf("BT/QCD-%d accuracy %.5f, closed form %.5f ± %.5f (3σ)", l, got, want, 3*sigma)
		}
	}
}
