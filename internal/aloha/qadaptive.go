package aloha

import (
	"fmt"
	"math"

	"repro/internal/metrics"
	"repro/internal/signal"
)

// QConfig parameterises the EPC Class-1 Gen-2 "Q algorithm", the
// slot-by-slot adaptive FSA the paper cites as Q-Adaptive: the reader
// maintains a floating-point Q estimate, nudged up by C on collisions and
// down by C on idles, and restarts the inventory round whenever the
// rounded Q changes.
type QConfig struct {
	InitialQ float64 // Q_fp starting value (Gen-2 default 4.0)
	C        float64 // adjustment step, Gen-2 allows 0.1–0.5
	MaxQ     float64 // upper clamp (Gen-2: 15)
}

// DefaultQConfig returns the customary Gen-2 parameters.
func DefaultQConfig() QConfig { return QConfig{InitialQ: 4.0, C: 0.3, MaxQ: 15} }

// Validate reports a step outside (0, 1] or a Q range that is not
// 0 ≤ InitialQ ≤ MaxQ.
func (c QConfig) Validate() error {
	if c.C <= 0 || c.C > 1 {
		return fmt.Errorf("aloha: Q step C=%v out of (0,1]", c.C)
	}
	if c.InitialQ < 0 || c.MaxQ < c.InitialQ {
		return fmt.Errorf("aloha: invalid Q range [%v,%v]", c.InitialQ, c.MaxQ)
	}
	return nil
}

// State returns the reader's Q estimate at the start of an inventory.
func (c QConfig) State() QState { return QState{c: c.C, maxQ: c.MaxQ, qfp: c.InitialQ} }

// QState is a Gen-2 reader's Q estimate: Q_fp, clamped to [0, MaxQ],
// rises by C after a collided slot and falls by C after an idle one. A
// round runs at the rounded Q; the reader restarts it (QueryAdjust) as
// soon as Q_fp rounds to a different value.
type QState struct {
	c, maxQ float64
	qfp     float64
	lo, hi  float64 // Q_fp rounds to the round's Q while it stays in [lo, hi)
}

// Query starts a round and returns its Q, Q_fp rounded.
func (s *QState) Query() int {
	q := math.Round(s.qfp)
	// q±0.5 is representable and Q_fp ≥ 0, so [lo, hi) is exactly
	// math.Round's half-away-from-zero preimage of q.
	s.lo, s.hi = q-0.5, q+0.5
	return int(q)
}

// Step applies one slot's ground truth to Q_fp and reports whether the
// round must restart with a new Q.
func (s *QState) Step(truth signal.SlotType) bool {
	switch truth {
	case signal.Idle:
		if s.qfp -= s.c; s.qfp < 0 {
			s.qfp = 0
		}
	case signal.Collided:
		if s.qfp += s.c; s.qfp > s.maxQ {
			s.qfp = s.maxQ
		}
	}
	return s.qfp < s.lo || s.qfp >= s.hi
}

// qPlacePrefix is how many leading slots of each Q frame the exact
// backend buckets eagerly. Rounds almost always restart within a few
// slots (C = 0.3 flips the rounded Q after two same-sign nudges), so
// eager buckets past a small prefix are wasted work; the scheduler
// answers the rare deeper slot by scanning the active list instead.
const qPlacePrefix = 16

// QAdaptive identifies the population with the Gen-2 Q algorithm: each
// Query announces a 2^Q-slot round, the slots run in order, and the round
// restarts as soon as Q moves. Per the paper's methodology, reader-to-tag
// command airtime is not charged (identical under both detection
// schemes); only tag transmissions count. Frames in the returned census
// count Query commands (round starts).
func (b *Backend) QAdaptive(cfg QConfig) *metrics.Session {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	b.q = cfg.State()
	for b.remaining() > 0 {
		if b.pastCap() {
			b.overCap("Q-adaptive")
		}
		b.sess.Census.Frames++
		b.slots.qRound(&b.q, b.q.Query(), b.remaining())
	}
	return b.sess
}
