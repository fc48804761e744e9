package sim

import (
	"math"
	"os"
	"reflect"
	"testing"

	"repro/internal/obs/audit"
)

// equivCases are the paper's Table-VI workloads the in-repo harness
// covers. Cases III and IV (5000 and 50000 tags) take long enough in
// exact mode that they run through cmd/ksequiv in CI instead; set
// EQUIV_FULL=1 to include them here.
func equivCases(t *testing.T) map[string]Config {
	cases := map[string]Config{
		"case1-fsa-qcd": {Tags: 50, Seed: 42, Algorithm: AlgFSA, FrameSize: 30,
			Detector: DetQCD, Strength: 8},
		"case2-fsa-qcd": {Tags: 500, Seed: 42, Algorithm: AlgFSA, FrameSize: 300,
			Detector: DetQCD, Strength: 8},
		"case1-fsa-crccd": {Tags: 50, Seed: 42, Algorithm: AlgFSA, FrameSize: 30,
			Detector: DetCRCCD},
		"case1-edfsa": {Tags: 50, Seed: 42, Algorithm: AlgEDFSA, FrameSize: 64,
			Detector: DetQCD, Strength: 8},
		"case1-qadaptive": {Tags: 50, Seed: 42, Algorithm: AlgQAdaptive,
			Detector: DetQCD, Strength: 8},
	}
	if os.Getenv("EQUIV_FULL") != "" {
		cases["case3-fsa-qcd"] = Config{Tags: 5000, Seed: 42, Algorithm: AlgFSA,
			FrameSize: 3000, Detector: DetQCD, Strength: 8}
		cases["case4-fsa-qcd"] = Config{Tags: 50000, Seed: 42, Algorithm: AlgFSA,
			FrameSize: 30000, Detector: DetQCD, Strength: 8}
	}
	return cases
}

// TestStatEquivalence is the statistical-correctness acceptance test for
// ModeStat: for each workload, the exact and stat round distributions of
// slots, identification time and misidentification rate must be
// KS-indistinguishable. Seeds are fixed, so D is deterministic — a
// failure is a real distributional drift, not noise; alpha 0.01 keeps
// the threshold meaningful while leaving slack above the observed Ds.
func TestStatEquivalence(t *testing.T) {
	for name, cfg := range equivCases(t) {
		t.Run(name, func(t *testing.T) {
			rounds := 120
			if cfg.Tags >= 5000 {
				rounds = 40
			}
			rep, err := StatEquivalence(cfg, rounds, 0.01)
			if err != nil {
				t.Fatal(err)
			}
			if !rep.Pass() {
				t.Errorf("stat mode distribution drift:\n%s", rep)
			}
			// Guard against a vacuous pass where both engines return junk:
			// the slot means must be in the right ballpark of each other.
			for _, m := range rep.Metrics {
				if m.Name == "slots" && (m.ExactMean <= 0 || m.StatMean <= 0) {
					t.Errorf("degenerate slot samples: %+v", m)
				}
			}
		})
	}
}

func TestStatEquivalenceInputChecks(t *testing.T) {
	if _, err := StatEquivalence(Config{Tags: 10, Algorithm: AlgBT, Detector: DetQCD}, 20, 0.05); err == nil {
		t.Error("BT config accepted (stat mode cannot run it)")
	}
	if _, err := StatEquivalence(Config{Tags: 10, Algorithm: AlgFSA, FrameSize: 8, Detector: DetQCD}, 5, 0.05); err == nil {
		t.Error("5 rounds accepted (no KS power)")
	}
}

// TestStatModeValidate pins which configurations stat mode refuses.
func TestStatModeValidate(t *testing.T) {
	base := Config{Tags: 10, Algorithm: AlgFSA, FrameSize: 8, Detector: DetQCD, Mode: ModeStat}
	if err := base.Validate(); err != nil {
		t.Fatalf("valid stat config rejected: %v", err)
	}
	for name, mutate := range map[string]func(*Config){
		"bt":      func(c *Config) { c.Algorithm = AlgBT },
		"qt":      func(c *Config) { c.Algorithm = AlgQT },
		"ber":     func(c *Config) { c.BER = 1e-4 },
		"capture": func(c *Config) { c.CaptureProb = 0.5 },
		"unknown": func(c *Config) { c.Mode = "approximate" },
	} {
		c := base
		mutate(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("%s: invalid stat config accepted", name)
		}
	}
	// The canonical spelling of exact mode is the empty string, so both
	// spellings must validate and canonicalise identically.
	exact := Config{Tags: 10, Algorithm: AlgBT, Detector: DetQCD, Mode: ModeExact}
	if err := exact.Validate(); err != nil {
		t.Errorf("explicit exact mode rejected: %v", err)
	}
	if exact.Canonical().Mode != "" {
		t.Errorf("Canonical kept Mode = %q, want empty", exact.Canonical().Mode)
	}
}

// TestStatAggregateBitIdenticalAcrossWorkers extends the package's
// determinism contract to stat mode: per-round seeds are pre-drawn and
// each round re-seeds its pooled source, so worker count must not leak
// into the aggregate.
func TestStatAggregateBitIdenticalAcrossWorkers(t *testing.T) {
	cases := map[string]Config{
		"fsa": {Tags: 200, Seed: 42, Rounds: 8, Algorithm: AlgFSA,
			FrameSize: 128, Detector: DetQCD, Mode: ModeStat},
		"edfsa": {Tags: 200, Seed: 42, Rounds: 8, Algorithm: AlgEDFSA,
			FrameSize: 64, Detector: DetCRCCD, Mode: ModeStat},
		"qadaptive": {Tags: 200, Seed: 42, Rounds: 8, Algorithm: AlgQAdaptive,
			Detector: DetQCD, Mode: ModeStat},
	}
	for name, c := range cases {
		t.Run(name, func(t *testing.T) {
			var ref *Aggregate
			for _, w := range []int{1, 4} {
				cw := c
				cw.Workers = w
				agg, err := Run(cw)
				if err != nil {
					t.Fatal(err)
				}
				agg.Cfg.Workers = 0
				if ref == nil {
					ref = agg
					continue
				}
				if !reflect.DeepEqual(ref, agg) {
					t.Error("stat aggregate differs between Workers=1 and Workers=4")
				}
			}
		})
	}
}

// TestStatAuditThreeSigma is TestAuditThreeSigmaQCD for the stat
// engines: the Observe feed must give the audit layer the same analytic
// expectation model, and the batched Bernoulli coins must realise it —
// measured false singles within 3σ of Σ 2^-(l·(m-1)).
func TestStatAuditThreeSigma(t *testing.T) {
	a, ctx := audited(audit.Options{ExemplarCap: 16})
	c := Config{
		Tags: 200, Seed: 42, Rounds: 80,
		Algorithm: AlgFSA, FrameSize: 64,
		Detector: DetQCD, Strength: 4,
		Mode: ModeStat,
	}
	if _, err := RunContext(ctx, c); err != nil {
		t.Fatal(err)
	}
	rep := a.Report()
	if len(rep.Detectors) != 1 {
		t.Fatalf("detectors = %+v, want just QCD-4", rep.Detectors)
	}
	d := rep.Detectors[0]
	if d.Detector != "QCD-4" || d.Strength != 4 {
		t.Fatalf("audited %q/%d, want QCD-4/4", d.Detector, d.Strength)
	}
	if d.TrueCollided == 0 || d.ExpectedStdDev == 0 {
		t.Fatalf("no collisions audited: %+v", d)
	}
	if d.FalseSingle == 0 {
		t.Fatalf("no false singles at l=4 over %d collided slots", d.TrueCollided)
	}
	diff := math.Abs(float64(d.FalseSingle) - d.ExpectedFalseSingles)
	if diff > 3*d.ExpectedStdDev {
		t.Errorf("false singles %d vs expected %.1f: |Δ|=%.1f exceeds 3σ=%.1f",
			d.FalseSingle, d.ExpectedFalseSingles, diff, 3*d.ExpectedStdDev)
	}
	if d.FalseCollision != 0 || d.FalseIdle != 0 {
		t.Errorf("impossible cells populated: %+v", d)
	}
}

// TestStatModeFasterThanExact pins the perf_opt headline at the sim
// layer with a generous margin (the bench gate enforces the strict 5x):
// a stat-mode run of the 500-tag Q-adaptive case must not be slower
// than exact mode.
func TestStatModeFasterThanExact(t *testing.T) {
	if testing.Short() {
		t.Skip("timing comparison")
	}
	c := Config{Tags: 500, Seed: 42, Rounds: 30, Workers: 1,
		Algorithm: AlgQAdaptive, Detector: DetQCD}
	exact := c
	stat := c
	stat.Mode = ModeStat
	timeRun := func(cfg Config) float64 {
		res := testing.Benchmark(func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := Run(cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
		return float64(res.NsPerOp())
	}
	et, st := timeRun(exact), timeRun(stat)
	if st > et {
		t.Errorf("stat mode slower than exact: %.0fns vs %.0fns", st, et)
	}
}
