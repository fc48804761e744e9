package sim

import (
	"context"
	"fmt"
	"reflect"
	"testing"
)

// TestScratchPoolAcrossConfigs: one ScratchPool serves a run of
// configurations that switch algorithm, mode, detector, channel and
// worker count, and grow and shrink the population (50 → 5000 → 50), as
// a reproduction run's pool does. Whatever a scratch kept from earlier
// runs, every aggregate must equal the one fresh scratches give.
func TestScratchPoolAcrossConfigs(t *testing.T) {
	dets := []string{DetQCD, DetCRCCD, DetOracle}
	var cfgs []Config
	for _, tags := range []int{50, 5000, 50} {
		for _, alg := range []string{AlgFSA, AlgEDFSA, AlgQAdaptive, AlgBT, AlgQT} {
			c := Config{
				Tags: tags, Seed: uint64(len(cfgs) + 1), Rounds: 2, Algorithm: alg,
				FrameSize: tags / 2, Detector: dets[len(cfgs)%len(dets)], Strength: 4,
				ConfirmEmpty: alg == AlgFSA,
			}
			variants := []Config{c}
			if c.framedALOHA() {
				impaired := c
				impaired.BER, impaired.CaptureProb = 0.002, 0.25
				stat := c
				stat.Mode = ModeStat
				variants = append(variants, impaired, stat)
			}
			for _, v := range variants {
				v.Workers = 1 + len(cfgs)%2
				cfgs = append(cfgs, v)
			}
		}
	}
	var pool ScratchPool
	for i, c := range cfgs {
		name := fmt.Sprintf("%d/%s/%s/%d/%s", i, c.Algorithm, c.Detector, c.Tags, c.Mode)
		fresh, err := RunContextPool(context.Background(), c, nil)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		pooled, err := RunContextPool(context.Background(), c, &pool)
		if err != nil {
			t.Fatalf("%s pooled: %v", name, err)
		}
		if !reflect.DeepEqual(pooled, fresh) {
			t.Errorf("%s (BER %v, workers %d): pooled aggregate\n%+v\nfresh\n%+v",
				name, c.BER, c.Workers, pooled, fresh)
		}
	}
}
