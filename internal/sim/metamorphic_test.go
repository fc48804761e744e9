package sim

import (
	"testing"

	"repro/internal/metrics"
	"repro/internal/stats"
	"repro/internal/timing"
)

// Metamorphic relations: each compares two runs of related configs, so
// they keep checking the engines when a golden is refreshed. The seed
// corpora run under go test ./...; go test -fuzz explores further.

var (
	metaAlgorithms = []string{AlgFSA, AlgEDFSA, AlgQAdaptive, AlgBT, AlgQT}
	metaDetectors  = []string{DetQCD, DetCRCCD, DetOracle}
)

// metaConfig maps fuzz inputs onto a small config: a few rounds of at
// most 120 tags.
func metaConfig(alg, det uint8, tags uint8, seed uint64) Config {
	return Config{
		Tags: 2 + int(tags)%119, Seed: seed, Rounds: 3,
		Algorithm: metaAlgorithms[int(alg)%len(metaAlgorithms)],
		Detector:  metaDetectors[int(det)%len(metaDetectors)],
		FrameSize: 32, Strength: 4,
	}
}

// FuzzTauScaling checks that multiplying the bit time τ by 4 leaves
// every census figure unchanged and scales every time exactly: session
// time and delays are sums of bit counts times τ, and scaling by a power
// of two is exact in floating point.
func FuzzTauScaling(f *testing.F) {
	for alg := range metaAlgorithms {
		for det := range metaDetectors {
			for _, mode := range []string{ModeExact, ModeStat} {
				for _, ber := range []bool{false, true} {
					c := metaConfig(uint8(alg), uint8(det), 58, uint64(7+alg))
					c.Mode = mode
					if ber {
						c.BER = 0.01
					}
					if c.Validate() == nil {
						f.Add(uint8(alg), uint8(det), mode == ModeStat, ber, uint8(58), uint64(7+alg))
					}
				}
			}
		}
	}
	f.Fuzz(func(t *testing.T, alg, det uint8, stat, ber bool, tags uint8, seed uint64) {
		c := metaConfig(alg, det, tags, seed)
		if stat {
			c.Mode = ModeStat
		}
		if ber {
			c.BER = 0.01
		}
		if c.Validate() != nil {
			t.Skip("unsupported combination")
		}
		base, err := Run(c)
		if err != nil {
			t.Fatal(err)
		}
		c.TauMicros = 4
		slow, err := Run(c)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range []struct {
			name       string
			base, slow stats.Accumulator
		}{
			{"idle", base.Idle, slow.Idle},
			{"single", base.Single, slow.Single},
			{"collided", base.Collided, slow.Collided},
			{"frames", base.Frames, slow.Frames},
			{"slots", base.Slots, slow.Slots},
			{"throughput", base.Throughput, slow.Throughput},
			{"bits", base.Bits, slow.Bits},
			{"accuracy", base.Accuracy, slow.Accuracy},
			{"ur", base.UR, slow.UR},
			{"false single", base.FalseSingle, slow.FalseSingle},
			{"phantom", base.Phantom, slow.Phantom},
		} {
			if p.base != p.slow {
				t.Errorf("%+v: %s moved with τ: %+v → %+v", c, p.name, p.base, p.slow)
			}
		}
		for _, p := range []struct {
			name       string
			base, slow stats.Accumulator
		}{
			{"time", base.TimeMicros, slow.TimeMicros},
			{"delay mean", base.DelayMean, slow.DelayMean},
			{"delay", base.Delay, slow.Delay},
		} {
			if p.slow.N() != p.base.N() || p.slow.Mean() != 4*p.base.Mean() ||
				p.slow.StdDev() != 4*p.base.StdDev() ||
				p.slow.Min() != 4*p.base.Min() || p.slow.Max() != 4*p.base.Max() {
				t.Errorf("%+v: %s did not scale by 4: mean %v → %v, σ %v → %v",
					c, p.name, p.base.Mean(), p.slow.Mean(), p.base.StdDev(), p.slow.StdDev())
			}
		}
	})
}

// FuzzDetectorSwap checks that in exact mode CRC-CD behaves as the
// oracle: neither draws anything in contention, so while CRC-CD misses
// no collision the two run the same session, and each session's time
// is its census priced by its detector's slot lengths.
func FuzzDetectorSwap(f *testing.F) {
	for alg := range metaAlgorithms {
		f.Add(uint8(alg), uint8(98), uint64(11+alg))
	}
	f.Fuzz(func(t *testing.T, alg, tags uint8, seed uint64) {
		c := metaConfig(alg, 0, tags, seed)
		tm := timing.Model{TauMicros: 1}
		for _, roundSeed := range RoundSeeds(seed, c.Rounds) {
			crccd, oracle := c, c
			crccd.Detector, oracle.Detector = DetCRCCD, DetOracle
			sc, err := RunRound(crccd, roundSeed)
			if err != nil {
				t.Fatal(err)
			}
			so, err := RunRound(oracle, roundSeed)
			if err != nil {
				t.Fatal(err)
			}
			if sc.Detection.FalseSingle > 0 {
				t.Skip("CRC-CD missed a collision: its checksum passed a Boolean sum")
			}
			if sc.Census != so.Census {
				t.Errorf("%s: CRC-CD census %+v, oracle %+v", c.Algorithm, sc.Census, so.Census)
			}
			for _, run := range []struct {
				cfg Config
				s   *metrics.Session
			}{{crccd, sc}, {oracle, so}} {
				det, err := BuildDetector(run.cfg)
				if err != nil {
					t.Fatal(err)
				}
				if want := tm.SessionMicros(run.s.Census, det); run.s.TimeMicros != want {
					t.Errorf("%s/%s: session time %v, census priced at %v",
						c.Algorithm, run.cfg.Detector, run.s.TimeMicros, want)
				}
			}
		}
	})
}
