package aloha_test

import (
	"fmt"

	"repro/internal/aloha"
	"repro/internal/detect"
	"repro/internal/prng"
	"repro/internal/tagmodel"
	"repro/internal/timing"
)

// One complete FSA identification session: 100 tags, the Lemma-1 optimal
// frame size, QCD detection. Single slots equal the population size and
// every tag comes back identified.
func ExampleBackend_FSA() {
	pop := tagmodel.NewPopulation(100, 64, prng.New(42))
	det := detect.NewQCD(8, 64)
	s := aloha.Exact(pop, det, timing.Default, aloha.Options{}).FSA(aloha.NewFixed(100))
	fmt.Println(s.Census.Single, pop.AllIdentified())
	// Output: 100 true
}

// Frame policies are pluggable; Schoute re-sizes every frame from the
// collision count of the previous one.
func ExampleNewSchoute() {
	p := aloha.NewSchoute(128)
	next := p.NextFrame(aloha.FrameCensus{Size: 128, Single: 40, Collided: 30})
	fmt.Println(p.Name(), next) // ceil(2.39 × 30)
	// Output: schoute 72
}
