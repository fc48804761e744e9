package sim

import (
	"fmt"
	"testing"

	"repro/internal/aloha"
	"repro/internal/crc"
)

// TestStatModelChargesTheBuiltDetector pins stat mode's airtime to the
// exact engines': for every QCD strength the paper evaluates, every CRC
// preset and the oracle, the stat model's ContentionBits and IDPhaseBits
// are the built detector's, and its name and miss model are the scheme's.
func TestStatModelChargesTheBuiltDetector(t *testing.T) {
	type statCase struct {
		cfg  Config
		want aloha.StatModel // airtime filled in from the built detector
	}
	cases := []statCase{{Config{Detector: DetOracle}, aloha.StatModel{Name: "oracle", MissExp: -1}}}
	for _, l := range []int{4, 8, 16} {
		cases = append(cases, statCase{Config{Detector: DetQCD, Strength: l},
			aloha.StatModel{Name: fmt.Sprintf("QCD-%d", l), Strength: l}})
	}
	for _, p := range crc.Presets() {
		cases = append(cases, statCase{Config{Detector: DetCRCCD, CRCName: p.Name},
			aloha.StatModel{Name: "CRC-CD/" + p.Name, MissExp: p.Width}})
	}
	for _, c := range cases {
		t.Run(c.want.Name, func(t *testing.T) {
			cfg := c.cfg.withDefaults()
			det, err := BuildDetector(cfg)
			if err != nil {
				t.Fatal(err)
			}
			m, err := statModel(cfg)
			if err != nil {
				t.Fatal(err)
			}
			want := c.want
			want.ContentionBits, want.IDPhaseBits = det.ContentionBits(), det.IDPhaseBits()
			if m != want {
				t.Errorf("statModel = %+v, want %+v", m, want)
			}
		})
	}
}
