package gen2_test

import (
	"fmt"

	"repro/internal/detect"
	"repro/internal/gen2"
	"repro/internal/prng"
	"repro/internal/tagmodel"
	"repro/internal/timing"
)

// A command-level Gen-2 inventory with the QCD preamble in the
// slot-opening reply: Query/QueryRep/ACK airtime is charged, and wasted
// ACK exchanges (the stock-RN16 failure mode) essentially vanish.
func ExampleRun() {
	pop := tagmodel.NewPopulation(100, 64, prng.New(5))
	cfg := gen2.DefaultConfig(gen2.ReplyQCD, detect.NewQCD(8, 64))
	res := gen2.Run(pop, cfg, timing.Default)
	fmt.Println(pop.AllIdentified(), res.ACKs >= 100, res.WastedACKs <= 2)
	// Output: true true true
}
