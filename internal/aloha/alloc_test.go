//go:build !race

package aloha

import (
	"testing"

	"repro/internal/prng"
)

// TestStatEnginesZeroAllocSteadyState pins the stat backend's whole
// point: with a warmed scratch, whose session it reuses too, an
// identification round under every driver performs no heap allocation
// at all — the draw buffers, occupancy words, coin buffers and delay
// slices are all reused. Excluded under
// -race, whose instrumentation changes allocation behaviour.
func TestStatEnginesZeroAllocSteadyState(t *testing.T) {
	model := StatModel{Name: "QCD-8", ContentionBits: 16, IDPhaseBits: 64, Strength: 8}
	var sc Scratch
	rng := prng.New(1)
	opt := Options{Scratch: &sc}
	// Convert the policy to its interface once, outside the measured
	// loop, as sim's round scratch path effectively does via buildPolicy.
	var policy FramePolicy = NewFixed(300)
	cases := map[string]func(seed uint64){
		"fsa": func(seed uint64) {
			rng.Seed(seed)
			Stat(500, model, tm, rng, opt).FSA(policy)
		},
		"edfsa": func(seed uint64) {
			rng.Seed(seed)
			Stat(500, model, tm, rng, opt).EDFSA(EDFSAConfig{MaxFrame: 256})
		},
		"qadaptive": func(seed uint64) {
			rng.Seed(seed)
			Stat(500, model, tm, rng, opt).QAdaptive(DefaultQConfig())
		},
	}
	for name, run := range cases {
		t.Run(name, func(t *testing.T) {
			seed := uint64(0)
			next := func() { seed++; run(seed) }
			// Warm across several seeds so every growable buffer has seen
			// its high-water mark before measuring.
			for i := 0; i < 5; i++ {
				next()
			}
			if allocs := testing.AllocsPerRun(10, next); allocs != 0 {
				t.Errorf("steady-state allocations = %v, want 0", allocs)
			}
		})
	}
}
