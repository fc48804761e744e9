package aloha

import (
	"fmt"
	"math"

	"repro/internal/metrics"
)

// EDFSAConfig parameterises Enhanced Dynamic FSA (Lee, Joo & Lee,
// MobiQuitous 2005 — reference [8] of the paper). Real readers cap the
// frame length (EPC Gen-2 tops out at 2^15, practical readers far lower);
// when the estimated backlog exceeds what the maximum frame can absorb at
// the λ = 1/e operating point, EDFSA splits the tags into M groups by a
// random draw the reader announces, and interrogates one group per frame
// with only that group responding.
type EDFSAConfig struct {
	// MaxFrame is the largest frame the reader can issue (e.g. 256).
	MaxFrame int
	// InitialFrame seeds the first round (default MaxFrame).
	InitialFrame int
}

func (c EDFSAConfig) validate() {
	if c.MaxFrame < 1 {
		panic(fmt.Sprintf("aloha: EDFSA MaxFrame %d must be positive", c.MaxFrame))
	}
}

// EDFSA identifies the population with enhanced dynamic FSA. Each round
// sizes groups and frames from the backlog estimate, has every
// unidentified tag self-select a group, interrogates the groups in turn,
// and re-estimates the backlog from the round's collisions (Schoute).
// Frames in the census count issued frames (one per group per round).
func (b *Backend) EDFSA(cfg EDFSAConfig) *metrics.Session {
	cfg.validate()
	first := cfg.InitialFrame
	if first < 1 {
		first = cfg.MaxFrame
	}
	s := b.sess
	estimate := float64(first) // backlog estimate going into each round
	for b.remaining() > 0 {
		if b.pastCap() {
			b.overCap("EDFSA")
		}
		// Choose groups so each group's backlog fits the max frame at the
		// optimal occupancy n ≈ F.
		groups := max(1, int(math.Ceil(estimate/float64(cfg.MaxFrame))))
		size := min(cfg.MaxFrame, max(1, int(math.Ceil(estimate/float64(groups)))))

		b.slots.partition(groups, b.remaining())
		collided := s.Census.Collided
		for g := 0; g < groups && b.remaining() > 0; g++ {
			s.Census.Frames++
			b.slots.groupFrame(g, size)
		}
		estimate = max(1, SchouteMultiplier*float64(s.Census.Collided-collided))
	}
	return s
}
