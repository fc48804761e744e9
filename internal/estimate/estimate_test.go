package estimate

import (
	"math"
	"testing"

	"repro/internal/aloha"
	"repro/internal/analytic"
	"repro/internal/detect"
	"repro/internal/prng"
	"repro/internal/tagmodel"
	"repro/internal/timing"
)

// observedCensus runs one real FSA frame of size f over n tags and
// returns its census (using the oracle so classification is exact).
func observedCensus(n, f int, seed uint64) aloha.FrameCensus {
	rng := prng.New(seed)
	var c aloha.FrameCensus
	c.Size = f
	counts := make([]int, f)
	for i := 0; i < n; i++ {
		counts[rng.Intn(f)]++
	}
	for _, k := range counts {
		switch {
		case k == 0:
			c.Idle++
		case k == 1:
			c.Single++
		default:
			c.Collided++
		}
	}
	return c
}

func TestEstimatorsNearTruth(t *testing.T) {
	// Average estimates over several frames; all estimators should land
	// within ~15% of the truth at the F≈n operating point.
	const n, f, rounds = 300, 300, 30
	for _, est := range All() {
		sum := 0.0
		for r := uint64(0); r < rounds; r++ {
			sum += est.Estimate(observedCensus(n, f, r+1))
		}
		got := sum / rounds
		if math.Abs(got-n)/n > 0.15 {
			t.Errorf("%s: mean estimate %.1f for true n=%d", est.Name(), got, n)
		}
	}
}

func TestLowerBoundIsLower(t *testing.T) {
	c := observedCensus(300, 300, 7)
	if (LowerBound{}).Estimate(c) > (Schoute{}).Estimate(c) {
		t.Error("lower bound above Schoute")
	}
}

func TestZeroBasedDegenerate(t *testing.T) {
	// No idle slots at all: must fall back gracefully, not NaN.
	c := aloha.FrameCensus{Size: 10, Idle: 0, Single: 2, Collided: 8}
	got := ZeroBased{}.Estimate(c)
	if math.IsNaN(got) || got <= 0 {
		t.Errorf("degenerate zero-based estimate = %v", got)
	}
	// Tiny frame.
	c = aloha.FrameCensus{Size: 1, Idle: 1}
	if got := (ZeroBased{}).Estimate(c); math.IsNaN(got) {
		t.Error("size-1 frame gives NaN")
	}
}

func TestMLEExactOnExpectedCensus(t *testing.T) {
	// Feed the MLE the *expected* census for a known n: it must recover n
	// (the distance at the truth is 0).
	for _, n := range []float64{10, 50, 200} {
		f := 128.0
		e0, e1, ec := analytic.FSAExpectedCensus(n, f)
		c := aloha.FrameCensus{
			Size: int(f), Idle: int(math.Round(e0)),
			Single: int(math.Round(e1)), Collided: int(math.Round(ec)),
		}
		got := MLE{}.Estimate(c)
		if math.Abs(got-n) > 3 {
			t.Errorf("MLE on expected census of n=%v returned %v", n, got)
		}
	}
}

func TestPolicyIdentifiesEveryone(t *testing.T) {
	for _, est := range All() {
		pop := tagmodel.NewPopulation(400, 64, prng.New(11))
		s := aloha.Exact(pop, detect.NewQCD(8, 64), timing.Default, aloha.Options{}).FSA(NewPolicy(est, 128))
		if !pop.AllIdentified() {
			t.Fatalf("%s policy failed to identify everyone", est.Name())
		}
		// Estimating policies should stay within 2× of the clairvoyant
		// optimum's slot usage.
		pop2 := tagmodel.NewPopulation(400, 64, prng.New(11))
		opt := aloha.Exact(pop2, detect.NewQCD(8, 64), timing.Default, aloha.Options{}).FSA(aloha.Optimal{N: 400})
		if s.Census.Slots() > 2*opt.Census.Slots() {
			t.Errorf("%s policy used %d slots, optimal used %d",
				est.Name(), s.Census.Slots(), opt.Census.Slots())
		}
	}
}

func TestPolicyBeatsBadFixedStart(t *testing.T) {
	// Starting with a frame 8× too small, the estimator must still
	// converge quickly.
	pop := tagmodel.NewPopulation(800, 64, prng.New(13))
	s := aloha.Exact(pop, detect.NewQCD(8, 64), timing.Default, aloha.Options{}).FSA(NewPolicy(Schoute{}, 100))
	if !pop.AllIdentified() {
		t.Fatal("estimating policy failed from an undersized start")
	}
	if s.Census.Slots() > 5000 {
		t.Errorf("took %d slots for 800 tags", s.Census.Slots())
	}
}

func TestPolicyValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("initial frame 0 accepted")
		}
	}()
	NewPolicy(Schoute{}, 0)
}

func TestNames(t *testing.T) {
	want := map[string]bool{"schoute": true, "lowerbound": true, "zerobased": true, "mle": true}
	for _, e := range All() {
		if !want[e.Name()] {
			t.Errorf("unexpected estimator %q", e.Name())
		}
	}
	if NewPolicy(MLE{}, 4).Name() != "estimate-mle" {
		t.Error("policy name")
	}
}
