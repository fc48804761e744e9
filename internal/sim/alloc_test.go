//go:build !race

package sim

import "testing"

// TestPooledRoundSteadyStateAllocs guards the cross-round reuse path: a
// warmed RoundScratch must run a full round with a small, bounded number
// of allocations (detector construction and map housekeeping — nothing
// proportional to slots or tags). Excluded under -race, whose
// instrumentation changes allocation behaviour.
func TestPooledRoundSteadyStateAllocs(t *testing.T) {
	cases := map[string]Config{
		"fsa/qcd":   {Tags: 100, Algorithm: AlgFSA, FrameSize: 60, Detector: DetQCD},
		"fsa/crccd": {Tags: 100, Algorithm: AlgFSA, FrameSize: 60, Detector: DetCRCCD},
		"qadaptive": {Tags: 100, Algorithm: AlgQAdaptive, Detector: DetQCD},
		"edfsa":     {Tags: 100, Algorithm: AlgEDFSA, FrameSize: 64, Detector: DetQCD},
		"qt":        {Tags: 100, Algorithm: AlgQT, Detector: DetCRCCD},
		"bt":        {Tags: 100, Algorithm: AlgBT, Detector: DetQCD},
	}
	for name, c := range cases {
		t.Run(name, func(t *testing.T) {
			c = c.withDefaults()
			rs := new(RoundScratch)
			run := func() {
				if _, err := runRound(c, 12345, &roundEnv{}, rs); err != nil {
					t.Fatal(err)
				}
			}
			run() // warm the scratch
			if allocs := testing.AllocsPerRun(5, run); allocs > 100 {
				t.Errorf("steady-state round allocations = %v, want <= 100", allocs)
			}
		})
	}
}

// TestStatRoundSteadyStateAllocs is the same guard for the stat round
// path with a far tighter budget: the engines themselves are
// allocation-free on a warmed scratch (pinned in internal/aloha), so
// all that remains per round is runRound's model/policy plumbing —
// a handful of allocations, independent of tags and slots.
func TestStatRoundSteadyStateAllocs(t *testing.T) {
	cases := map[string]Config{
		"fsa/qcd":   {Tags: 500, Algorithm: AlgFSA, FrameSize: 300, Detector: DetQCD, Mode: ModeStat},
		"fsa/crccd": {Tags: 500, Algorithm: AlgFSA, FrameSize: 300, Detector: DetCRCCD, Mode: ModeStat},
		"qadaptive": {Tags: 500, Algorithm: AlgQAdaptive, Detector: DetQCD, Mode: ModeStat},
		"edfsa":     {Tags: 500, Algorithm: AlgEDFSA, FrameSize: 256, Detector: DetQCD, Mode: ModeStat},
	}
	for name, c := range cases {
		t.Run(name, func(t *testing.T) {
			c = c.withDefaults()
			rs := new(RoundScratch)
			run := func() {
				if _, err := runRound(c, 12345, &roundEnv{}, rs); err != nil {
					t.Fatal(err)
				}
			}
			run() // warm the scratch
			if allocs := testing.AllocsPerRun(5, run); allocs > 8 {
				t.Errorf("steady-state stat round allocations = %v, want <= 8", allocs)
			}
		})
	}
}
