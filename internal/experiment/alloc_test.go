//go:build !race

package experiment

import (
	"testing"

	"repro/internal/estimate"
)

// TestPooledArtifactsAllocatePerWorker: the drivers that run their own
// rounds draw each round's population and engine buffers from the run's
// scratch pool, and EDFSA's rounds run through the memo, so at one
// worker an extra round costs a few allocations per configuration (its
// result vector, an impairment stream), not a fresh working set.
// Excluded under -race, whose instrumentation changes allocation
// behaviour.
func TestPooledArtifactsAllocatePerWorker(t *testing.T) {
	allocs := func(id string, rounds int) float64 {
		return testing.AllocsPerRun(1, func() {
			r, _ := ByID(id)
			if _, err := r.Run(Options{Rounds: rounds, MaxCase: 1, Seed: 1, Workers: 1}); err != nil {
				t.Fatal(err)
			}
		})
	}
	for _, a := range []struct {
		id      string
		configs int
	}{
		{"capture", 5},
		{"ablation-energy", 4},
		{"ablation-estimate", len(estimate.All()) + 2},
		{"edfsa", 4},
	} {
		extra := allocs(a.id, 8) - allocs(a.id, 4)
		perRound := extra / float64(4*a.configs)
		t.Logf("%s: %.0f allocations in 4 extra rounds, %.2f per configuration and round", a.id, extra, perRound)
		if perRound >= 4 {
			t.Errorf("%s: 4 extra rounds of %d configurations allocate %.0f more times (%.1f per configuration and round), want fewer than 4",
				a.id, a.configs, extra, perRound)
		}
	}
}
