package sim

import (
	"context"
	"errors"
	"math"
	"strings"
	"testing"
	"time"
)

func baseCfg() Config {
	return Config{
		Tags: 100, Seed: 1, Rounds: 4,
		Algorithm: AlgFSA, FrameSize: 60,
		Detector: DetQCD, Strength: 8,
	}
}

func TestRunBasic(t *testing.T) {
	agg, err := Run(baseCfg())
	if err != nil {
		t.Fatal(err)
	}
	if agg.Single.Mean() != 100 {
		t.Errorf("mean single slots = %v, want 100 (every tag once)", agg.Single.Mean())
	}
	if agg.Throughput.Mean() <= 0 || agg.Throughput.Mean() > 0.42 {
		t.Errorf("throughput = %v", agg.Throughput.Mean())
	}
	if agg.Delay.N() != 400 { // 100 tags × 4 rounds
		t.Errorf("delay observations = %d", agg.Delay.N())
	}
	if agg.Accuracy.Mean() < 0.95 {
		t.Errorf("accuracy = %v", agg.Accuracy.Mean())
	}
}

func TestDeterministicAcrossParallelism(t *testing.T) {
	c := baseCfg()
	c.Rounds = 8
	c.Workers = 1
	seq, err := Run(c)
	if err != nil {
		t.Fatal(err)
	}
	c.Workers = 8
	par, err := Run(c)
	if err != nil {
		t.Fatal(err)
	}
	if seq.TimeMicros.Mean() != par.TimeMicros.Mean() ||
		seq.Slots.Mean() != par.Slots.Mean() ||
		seq.Delay.Mean() != par.Delay.Mean() {
		t.Error("aggregate depends on worker count")
	}
}

func TestSeedChangesResults(t *testing.T) {
	a, err := Run(baseCfg())
	if err != nil {
		t.Fatal(err)
	}
	c := baseCfg()
	c.Seed = 2
	b, err := Run(c)
	if err != nil {
		t.Fatal(err)
	}
	if a.TimeMicros.Mean() == b.TimeMicros.Mean() {
		t.Error("different seeds gave identical times (suspicious)")
	}
}

func TestAllAlgorithmsAndDetectors(t *testing.T) {
	for _, alg := range []string{AlgFSA, AlgBT, AlgQAdaptive, AlgQT, AlgEDFSA} {
		for _, det := range []string{DetQCD, DetCRCCD, DetOracle} {
			c := Config{
				Tags: 60, Seed: 3, Rounds: 2,
				Algorithm: alg, FrameSize: 40, Detector: det,
			}
			agg, err := Run(c)
			if err != nil {
				t.Fatalf("%s/%s: %v", alg, det, err)
			}
			if agg.Single.Mean() < 60 {
				t.Errorf("%s/%s: single %v < tags", alg, det, agg.Single.Mean())
			}
		}
	}
}

func TestFramePolicies(t *testing.T) {
	for _, pol := range []string{PolicyFixed, PolicySchoute, PolicyLowerBound, PolicyOptimal} {
		c := baseCfg()
		c.FramePolicy = pol
		if _, err := Run(c); err != nil {
			t.Errorf("policy %s: %v", pol, err)
		}
	}
}

func TestValidation(t *testing.T) {
	bad := []Config{
		{Tags: 0, Algorithm: AlgFSA, FrameSize: 10, Detector: DetQCD},
		{Tags: 10, Algorithm: AlgEDFSA, FrameSize: 0, Detector: DetQCD},
		{Tags: 10, Algorithm: "nope", Detector: DetQCD},
		{Tags: 10, Algorithm: AlgFSA, FrameSize: 0, Detector: DetQCD},
		{Tags: 10, Algorithm: AlgFSA, FrameSize: 10, Detector: "nope"},
		{Tags: 10, Algorithm: AlgFSA, FrameSize: 10, Detector: DetQCD, Strength: 99},
		{Tags: 10, Algorithm: AlgFSA, FrameSize: 10, Detector: DetCRCCD, CRCName: "nope"},
	}
	for i, c := range bad {
		if _, err := Run(c); err == nil {
			t.Errorf("config %d accepted: %+v", i, c)
		}
	}
	// Rounds < 0 is rejected too.
	c := baseCfg()
	c.Rounds = -1
	if err := c.Validate(); err == nil {
		t.Error("negative rounds accepted")
	}
	// ID lengths no population can be drawn with, checked by Validate
	// alone: running the 2^30-bit one would try to allocate gigabytes.
	for _, tc := range []struct{ tags, bits int }{{20, -5}, {20, 1}, {20, 4}, {20, MaxIDBits + 1}, {20, 1 << 30}} {
		c := baseCfg()
		c.Tags, c.IDBits = tc.tags, tc.bits
		if err := c.Validate(); err == nil {
			t.Errorf("%d tags with %d-bit IDs accepted", tc.tags, tc.bits)
		}
	}
	for _, tc := range []struct{ tags, bits int }{{16, 4}, {20, 5}, {20, MaxIDBits}} {
		c := baseCfg()
		c.Tags, c.IDBits = tc.tags, tc.bits
		if err := c.Validate(); err != nil {
			t.Errorf("%d tags with %d-bit IDs rejected: %v", tc.tags, tc.bits, err)
		}
	}
}

func TestQCDBeatsCRCInAggregate(t *testing.T) {
	q := baseCfg()
	q.Rounds = 5
	qa, err := Run(q)
	if err != nil {
		t.Fatal(err)
	}
	cc := q
	cc.Detector = DetCRCCD
	ca, err := Run(cc)
	if err != nil {
		t.Fatal(err)
	}
	ei := (ca.TimeMicros.Mean() - qa.TimeMicros.Mean()) / ca.TimeMicros.Mean()
	if ei < 0.40 {
		t.Errorf("aggregate EI = %v, want > 0.40", ei)
	}
}

func TestBuildDetectorNames(t *testing.T) {
	c := baseCfg()
	d, err := BuildDetector(c)
	if err != nil || !strings.HasPrefix(d.Name(), "QCD") {
		t.Errorf("detector = %v, %v", d, err)
	}
	c.Detector = DetCRCCD
	d, err = BuildDetector(c)
	if err != nil || !strings.HasPrefix(d.Name(), "CRC-CD") {
		t.Errorf("detector = %v, %v", d, err)
	}
	c.Detector = DetOracle
	d, err = BuildDetector(c)
	if err != nil || d.Name() != "Oracle" {
		t.Errorf("detector = %v, %v", d, err)
	}
}

func TestRunRound(t *testing.T) {
	s, err := RunRound(baseCfg(), 12345)
	if err != nil {
		t.Fatal(err)
	}
	if s.TagsIdentified != 100 {
		t.Errorf("identified %d", s.TagsIdentified)
	}
	// Same round seed, same session.
	s2, err := RunRound(baseCfg(), 12345)
	if err != nil {
		t.Fatal(err)
	}
	if s.TimeMicros != s2.TimeMicros || s.Census != s2.Census {
		t.Error("RunRound not deterministic")
	}
}

func TestDefaultsApplied(t *testing.T) {
	c := Config{Tags: 10, Algorithm: AlgBT, Detector: DetQCD}
	agg, err := Run(c)
	if err != nil {
		t.Fatal(err)
	}
	if agg.Cfg.IDBits != 64 || agg.Cfg.Strength != 8 || agg.Cfg.TauMicros != 1 {
		t.Errorf("defaults not applied: %+v", agg.Cfg)
	}
}

func TestURInRange(t *testing.T) {
	agg, err := Run(baseCfg())
	if err != nil {
		t.Fatal(err)
	}
	if ur := agg.UR.Mean(); ur <= 0 || ur >= 1 {
		t.Errorf("UR = %v", ur)
	}
}

func TestImpairedChannelThroughConfig(t *testing.T) {
	clean := baseCfg()
	noisy := baseCfg()
	noisy.BER = 0.005
	ca, err := Run(clean)
	if err != nil {
		t.Fatal(err)
	}
	na, err := Run(noisy)
	if err != nil {
		t.Fatal(err)
	}
	if na.TimeMicros.Mean() <= ca.TimeMicros.Mean() {
		t.Error("noise did not slow identification")
	}
	// Noise re-arbitrates true singles, so truth-single slots exceed the
	// population; completion is asserted via per-tag delays instead.
	if na.Delay.N() != int64(noisy.Tags*noisy.Rounds) {
		t.Errorf("noisy run identified %d tag-rounds, want %d", na.Delay.N(), noisy.Tags*noisy.Rounds)
	}
	if na.Single.Mean() < 100 {
		t.Errorf("noisy truth singles %v < population", na.Single.Mean())
	}

	capt := baseCfg()
	capt.CaptureProb = 0.8
	cpt, err := Run(capt)
	if err != nil {
		t.Fatal(err)
	}
	if cpt.Slots.Mean() >= ca.Slots.Mean() {
		t.Error("capture did not reduce slot usage")
	}
}

// TestImpairedChannelReachesEveryFramedALOHA pins that BER and capture
// reach EDFSA and Q-adaptive sessions, not only FSA: an impaired run must
// differ from the ideal one in slots and airtime, and still identify
// every tag in every round.
func TestImpairedChannelReachesEveryFramedALOHA(t *testing.T) {
	for _, alg := range []string{AlgEDFSA, AlgQAdaptive} {
		clean := Config{Tags: 200, Seed: 3, Rounds: 5, Algorithm: alg, FrameSize: 128, Detector: DetQCD}
		noisy := clean
		noisy.BER, noisy.CaptureProb = 0.05, 0.3
		ca, err := Run(clean)
		if err != nil {
			t.Fatal(err)
		}
		na, err := Run(noisy)
		if err != nil {
			t.Fatal(err)
		}
		if na.Slots.Mean() == ca.Slots.Mean() || na.TimeMicros.Mean() == ca.TimeMicros.Mean() {
			t.Errorf("%s: impaired run matches the ideal one (%.1f slots, %.0f μs): the channel model was ignored",
				alg, na.Slots.Mean(), na.TimeMicros.Mean())
		}
		if na.Delay.N() != int64(noisy.Tags*noisy.Rounds) {
			t.Errorf("%s: impaired run identified %d tag-rounds, want %d", alg, na.Delay.N(), noisy.Tags*noisy.Rounds)
		}
	}
}

// TestTreeAlgorithmsRejectChannelImpairment pins that the tree engines,
// which run on the ideal channel only, refuse BER and capture instead of
// silently ignoring them.
func TestTreeAlgorithmsRejectChannelImpairment(t *testing.T) {
	for _, alg := range []string{AlgBT, AlgQT} {
		for name, mutate := range map[string]func(*Config){
			"ber":     func(c *Config) { c.BER = 0.05 },
			"capture": func(c *Config) { c.CaptureProb = 0.3 },
		} {
			c := Config{Tags: 10, Algorithm: alg, Detector: DetQCD}
			if err := c.Validate(); err != nil {
				t.Fatalf("%s: ideal config rejected: %v", alg, err)
			}
			mutate(&c)
			if err := c.Validate(); err == nil {
				t.Errorf("%s/%s: impaired tree config accepted", alg, name)
			}
		}
	}
}

func TestAccuracyImprovesWithStrength(t *testing.T) {
	acc := func(strength int) float64 {
		c := Config{
			Tags: 200, Seed: 9, Rounds: 6,
			Algorithm: AlgFSA, FrameSize: 100,
			Detector: DetQCD, Strength: strength,
		}
		agg, err := Run(c)
		if err != nil {
			t.Fatal(err)
		}
		return agg.Accuracy.Mean()
	}
	a2, a8 := acc(2), acc(8)
	if !(a2 < a8) {
		t.Errorf("accuracy not increasing: strength2=%v strength8=%v", a2, a8)
	}
	if a8 < 0.99 {
		t.Errorf("strength-8 accuracy %v, paper reports ≈100%%", a8)
	}
	if math.Abs(a2-1) < 1e-9 {
		t.Error("strength-2 accuracy suspiciously perfect")
	}
}

func TestRunContextCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := RunContext(ctx, baseCfg()); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestRunContextMatchesRun(t *testing.T) {
	c := baseCfg()
	plain, err := Run(c)
	if err != nil {
		t.Fatal(err)
	}
	viaCtx, err := RunContext(context.Background(), c)
	if err != nil {
		t.Fatal(err)
	}
	if plain.TimeMicros.Mean() != viaCtx.TimeMicros.Mean() ||
		plain.Slots.Mean() != viaCtx.Slots.Mean() {
		t.Error("RunContext with a background context diverged from Run")
	}
}

func TestRunContextDeadline(t *testing.T) {
	c := baseCfg()
	c.Tags = 2000
	c.Rounds = 64
	ctx, cancel := context.WithTimeout(context.Background(), time.Microsecond)
	defer cancel()
	if _, err := RunContext(ctx, c); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
}

func TestCanonical(t *testing.T) {
	sparse := Config{Tags: 100, Algorithm: AlgBT, Detector: DetQCD}
	full := sparse
	full.IDBits = 64
	full.Rounds = 1
	full.FramePolicy = PolicyFixed
	full.Strength = 8
	full.CRCName = "CRC-32/IEEE"
	full.TauMicros = 1
	full.Workers = 13 // scheduling only: must not affect the canonical form
	if sparse.Canonical() != full.Canonical() {
		t.Errorf("canonical forms differ:\n%+v\n%+v", sparse.Canonical(), full.Canonical())
	}
	if got := sparse.Canonical().Workers; got != 0 {
		t.Errorf("canonical Workers = %d, want 0", got)
	}
}
