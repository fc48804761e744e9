package rfid_test

// Cross-cutting integration tests: invariants that must hold for every
// (algorithm × detector) combination, end to end through the public API.

import (
	"math"
	"testing"

	rfid "repro"
)

var allAlgs = []string{rfid.AlgFSA, rfid.AlgBT, rfid.AlgQAdaptive, rfid.AlgQT}
var allDets = []string{rfid.DetQCD, rfid.DetCRCCD, rfid.DetOracle}

func TestInvariantEveryTagIdentifiedExactlyOnce(t *testing.T) {
	for _, alg := range allAlgs {
		for _, det := range allDets {
			s, err := rfid.RunRound(rfid.Config{
				Tags: 80, FrameSize: 50, Algorithm: alg, Detector: det, Strength: 8,
			}, 1234)
			if err != nil {
				t.Fatalf("%s/%s: %v", alg, det, err)
			}
			if s.TagsIdentified != 80 {
				t.Errorf("%s/%s: identified %d of 80", alg, det, s.TagsIdentified)
			}
			if len(s.DelaysMicros) != 80 {
				t.Errorf("%s/%s: %d delay records", alg, det, len(s.DelaysMicros))
			}
			// Singles in the ground-truth census equal the population when
			// no phantoms stole extra slots; they can exceed it only via
			// re-arbitration after misses.
			if s.Census.Single < 80 {
				t.Errorf("%s/%s: single slots %d < tags", alg, det, s.Census.Single)
			}
		}
	}
}

func TestInvariantCensusSumsAndBits(t *testing.T) {
	for _, alg := range allAlgs {
		for _, det := range allDets {
			s, err := rfid.RunRound(rfid.Config{
				Tags: 60, FrameSize: 40, Algorithm: alg, Detector: det, Strength: 8,
			}, 99)
			if err != nil {
				t.Fatalf("%s/%s: %v", alg, det, err)
			}
			if s.Census.Slots() != s.Census.Idle+s.Census.Single+s.Census.Collided {
				t.Errorf("%s/%s: census does not sum", alg, det)
			}
			if s.Bits <= 0 {
				t.Errorf("%s/%s: no bits recorded", alg, det)
			}
			// TimeMicros equals Bits at τ = 1 μs.
			if math.Abs(s.TimeMicros-float64(s.Bits)) > 1e-6 {
				t.Errorf("%s/%s: time %v != bits %d at τ=1", alg, det, s.TimeMicros, s.Bits)
			}
		}
	}
}

func TestInvariantDelaysBoundedByMakespan(t *testing.T) {
	for _, alg := range allAlgs {
		s, err := rfid.RunRound(rfid.Config{
			Tags: 64, FrameSize: 64, Algorithm: alg, Detector: rfid.DetQCD, Strength: 8,
		}, 5)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range s.DelaysMicros {
			if d <= 0 || d > s.TimeMicros+1e-9 {
				t.Errorf("%s: delay %v outside (0, %v]", alg, d, s.TimeMicros)
			}
		}
	}
}

func TestInvariantNoFalseCollisionsOnSingles(t *testing.T) {
	// Theorem 1's converse: a slot with exactly one responder is never
	// declared collided by any detector, so BT/QT recursion depth stays
	// bounded. Indirect check: oracle and QCD produce identical single
	// counts on the same seeds.
	for _, alg := range allAlgs {
		a, err := rfid.RunRound(rfid.Config{
			Tags: 64, FrameSize: 64, Algorithm: alg, Detector: rfid.DetQCD, Strength: 16,
		}, 777)
		if err != nil {
			t.Fatal(err)
		}
		if a.Detection.Phantom != 0 && alg != rfid.AlgQT {
			// At strength 16 a phantom needs a 2^-16 coincidence; a seeded
			// run exhibiting one deserves investigation.
			t.Errorf("%s: unexpected phantom at strength 16", alg)
		}
	}
}

func TestQCDAlwaysBeatsCRCOnTime(t *testing.T) {
	for _, alg := range allAlgs {
		cfg := rfid.Config{Tags: 100, FrameSize: 60, Algorithm: alg, Strength: 8, Rounds: 3, Seed: 3}
		cfg.Detector = rfid.DetQCD
		q, err := rfid.Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		cfg.Detector = rfid.DetCRCCD
		c, err := rfid.Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if q.TimeMicros.Mean() >= c.TimeMicros.Mean() {
			t.Errorf("%s: QCD (%.0fμs) not faster than CRC-CD (%.0fμs)",
				alg, q.TimeMicros.Mean(), c.TimeMicros.Mean())
		}
	}
}

func TestPublicMobility(t *testing.T) {
	arr := rfid.MobilityArrivals{RatePerSecond: 100, DwellMicros: 200_000}
	res := rfid.RunMobility(rfid.MobilityBT, rfid.NewQCD(8, 64), arr, 1e6, 1)
	if res.Arrived == 0 || res.Read+res.Missed != res.Arrived {
		t.Errorf("mobility bookkeeping: %+v", res)
	}
}

func TestPublicEstimatingPolicy(t *testing.T) {
	if len(rfid.Estimators()) != 4 {
		t.Fatalf("estimators = %d", len(rfid.Estimators()))
	}
	pop := rfid.NewPopulation(300, 64, 9)
	s := rfid.IdentifyFSAWithPolicy(pop, rfid.NewQCD(8, 64),
		rfid.EstimatingPolicy(rfid.Estimators()[0], 100))
	if !pop.AllIdentified() {
		t.Fatal("estimating policy via facade failed")
	}
	if s.Census.Throughput() < 0.25 {
		t.Errorf("estimating policy throughput %.3f", s.Census.Throughput())
	}
}

func TestPublicGen2(t *testing.T) {
	pop := rfid.NewPopulation(60, 64, 21)
	res := rfid.RunGen2(pop, rfid.NewGen2Config(rfid.Gen2QCD, rfid.NewQCD(8, 64)))
	if !pop.AllIdentified() {
		t.Fatal("gen2 facade failed")
	}
	if res.CommandBits == 0 || res.Queries == 0 {
		t.Errorf("gen2 counters: %+v", res)
	}
	// Stock RN16 also completes.
	pop2 := rfid.NewPopulation(60, 64, 21)
	rn := rfid.RunGen2(pop2, rfid.NewGen2Config(rfid.Gen2RN16, nil))
	if !pop2.AllIdentified() || rn.WastedACKs == 0 {
		t.Errorf("rn16 facade: wasted=%d", rn.WastedACKs)
	}
}

func TestPublicWorkloads(t *testing.T) {
	pop, err := rfid.BuildWorkload(rfid.WorkloadSingleVendor, 64, 5)
	if err != nil {
		t.Fatal(err)
	}
	if rfid.SharedPrefixLen(pop) < 60 {
		t.Error("single-vendor workload lost its shared prefix")
	}
	if _, err := rfid.BuildWorkload("ghost", 4, 5); err == nil {
		t.Error("unknown workload accepted")
	}
}

func TestPublicImpairedChannel(t *testing.T) {
	pop := rfid.NewPopulation(80, 64, 23)
	im := rfid.NewChannelImpairment(1e-3, 0, 9)
	s := rfid.IdentifyFSAImpaired(pop, rfid.NewQCD(8, 64), 80, im)
	if !pop.AllIdentified() {
		t.Fatal("impaired identification failed")
	}
	clean := rfid.NewPopulation(80, 64, 23)
	s2 := rfid.IdentifyFSA(clean, rfid.NewQCD(8, 64), 80)
	if s.TimeMicros < s2.TimeMicros {
		t.Error("noise made identification faster (suspicious)")
	}
}

func TestPublicKS(t *testing.T) {
	a := []float64{1, 2, 3, 4}
	b := []float64{100, 200, 300, 400}
	d := rfid.KolmogorovSmirnov(a, b)
	if d != 1 {
		t.Errorf("KS = %v", d)
	}
	if p := rfid.KSPValue(d, 4, 4); p > 0.2 {
		t.Errorf("p = %v", p)
	}
}

func TestPublicEDFSA(t *testing.T) {
	agg, err := rfid.Run(rfid.Config{
		Tags: 500, FrameSize: 64, Algorithm: rfid.AlgEDFSA,
		Detector: rfid.DetQCD, Rounds: 2, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if agg.Throughput.Mean() < 0.25 {
		t.Errorf("EDFSA throughput %v under a tight frame cap", agg.Throughput.Mean())
	}
}

func TestPublicPrivacy(t *testing.T) {
	id, _ := rfid.ParseBits("1100101011110000110010101111000011001010111100001100101011110000")
	s := rfid.NewPrivacySession(id, 77)
	for !s.Complete() {
		s.Round()
		if s.Rounds() > 100 {
			t.Fatal("privacy session did not complete")
		}
	}
	if got := rfid.PrivacyExpectedRounds(64); got < 6.5 || got > 8.5 {
		t.Errorf("expected rounds = %v", got)
	}
}

func TestPublicIdentifyVariants(t *testing.T) {
	det := rfid.NewQCD(8, 64)
	pop := rfid.NewPopulation(40, 64, 11)
	if s := rfid.IdentifyFSA(pop, det, 40); s.TagsIdentified != 40 {
		t.Error("IdentifyFSA failed")
	}
	pop2 := rfid.NewPopulation(40, 64, 12)
	if s := rfid.IdentifyBT(pop2, det); s.TagsIdentified != 40 {
		t.Error("IdentifyBT failed")
	}
	pop3 := rfid.NewPopulation(40, 64, 13)
	if s := rfid.IdentifyQT(pop3, det); s.TagsIdentified != 40 {
		t.Error("IdentifyQT failed")
	}
}
