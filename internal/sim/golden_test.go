package sim_test

// Golden determinism tests: for a fixed (Config, Seed), sim.Run aggregates
// must stay byte-identical across refactors of the slot engine. The files
// under testdata/ were generated at the seed state of the repository;
// any diff here means the PRNG draw sequence or the fold order changed,
// which invalidates cross-version comparisons of paper artifacts.
//
// Regenerate (only when an intentional semantic change is made) with:
//
//	UPDATE_GOLDEN=1 go test ./internal/sim -run TestGoldenAggregates

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/report"
	"repro/internal/sim"
)

var goldenCases = []struct {
	name string
	cfg  sim.Config
}{
	{"fsa_qcd", sim.Config{Tags: 200, Seed: 42, Rounds: 20, Algorithm: sim.AlgFSA, FrameSize: 128, Detector: sim.DetQCD, Strength: 8, ConfirmEmpty: true}},
	{"fsa_crccd", sim.Config{Tags: 150, Seed: 7, Rounds: 10, Algorithm: sim.AlgFSA, FrameSize: 128, Detector: sim.DetCRCCD}},
	{"bt_qcd", sim.Config{Tags: 100, Seed: 3, Rounds: 10, Algorithm: sim.AlgBT, Detector: sim.DetQCD}},
	{"qt_crccd", sim.Config{Tags: 64, Seed: 9, Rounds: 5, Algorithm: sim.AlgQT, Detector: sim.DetCRCCD}},
	{"edfsa_qcd", sim.Config{Tags: 200, Seed: 11, Rounds: 10, Algorithm: sim.AlgEDFSA, FrameSize: 64, Detector: sim.DetQCD}},
	{"qadaptive_oracle", sim.Config{Tags: 100, Seed: 13, Rounds: 5, Algorithm: sim.AlgQAdaptive, Detector: sim.DetOracle}},
	{"fsa_qcd_impaired", sim.Config{Tags: 100, Seed: 17, Rounds: 5, Algorithm: sim.AlgFSA, FrameSize: 64, Detector: sim.DetQCD, BER: 0.001, CaptureProb: 0.2}},
	{"fsa_qcd_strength32", sim.Config{Tags: 80, Seed: 23, Rounds: 5, Algorithm: sim.AlgFSA, FrameSize: 64, Detector: sim.DetQCD, Strength: 32}},
	{"bt_crccd_id96", sim.Config{Tags: 50, IDBits: 96, Seed: 29, Rounds: 5, Algorithm: sim.AlgBT, Detector: sim.DetCRCCD}},

	// Stat mode. These were generated before the stat Q-adaptive engine
	// looked its slot laws up in a table, which must not move a bit.
	{"stat_qadaptive_qcd4", sim.Config{Mode: sim.ModeStat, Tags: 500, Seed: 31, Rounds: 20, Algorithm: sim.AlgQAdaptive, Detector: sim.DetQCD, Strength: 4}},
	{"stat_qadaptive_qcd8", sim.Config{Mode: sim.ModeStat, Tags: 500, Seed: 37, Rounds: 20, Algorithm: sim.AlgQAdaptive, Detector: sim.DetQCD, Strength: 8}},
	{"stat_qadaptive_qcd16", sim.Config{Mode: sim.ModeStat, Tags: 500, Seed: 41, Rounds: 20, Algorithm: sim.AlgQAdaptive, Detector: sim.DetQCD, Strength: 16}},
	{"stat_qadaptive_crccd", sim.Config{Mode: sim.ModeStat, Tags: 500, Seed: 43, Rounds: 20, Algorithm: sim.AlgQAdaptive, Detector: sim.DetCRCCD}},
	{"stat_qadaptive_qcd8_5000", sim.Config{Mode: sim.ModeStat, Tags: 5000, Seed: 47, Rounds: 5, Algorithm: sim.AlgQAdaptive, Detector: sim.DetQCD, Strength: 8}},
	{"stat_fsa_qcd", sim.Config{Mode: sim.ModeStat, Tags: 500, Seed: 53, Rounds: 20, Algorithm: sim.AlgFSA, FrameSize: 256, Detector: sim.DetQCD, Strength: 4, ConfirmEmpty: true}},
	{"stat_edfsa_qcd", sim.Config{Mode: sim.ModeStat, Tags: 500, Seed: 59, Rounds: 20, Algorithm: sim.AlgEDFSA, FrameSize: 64, Detector: sim.DetQCD, Strength: 4}},
}

func goldenJSON(t *testing.T, cfg sim.Config) []byte {
	t.Helper()
	agg, err := sim.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.MarshalIndent(report.NewAggregateSummary(cfg.Canonical(), agg), "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return append(b, '\n')
}

func TestGoldenAggregates(t *testing.T) {
	update := os.Getenv("UPDATE_GOLDEN") != ""
	for _, c := range goldenCases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			path := filepath.Join("testdata", "golden_"+c.name+".json")
			got := goldenJSON(t, c.cfg)
			if update {
				if err := os.WriteFile(path, got, 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if string(got) != string(want) {
				t.Errorf("aggregate for %s diverged from the seed-state golden file %s;\n"+
					"the slot engine changed observable behaviour (PRNG draws or fold order)", c.name, path)
			}
		})
	}
}
