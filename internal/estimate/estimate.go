// Package estimate implements tag-cardinality estimators. Lemma 1 says
// FSA peaks at F = n, but — as the paper's Section VI-C notes — "in
// practice, the reader cannot exactly know the number of tags in
// advance", citing the estimation literature (Schoute; Vogt; Kodialam &
// Nandagopal; Qian et al.). These estimators read a frame's
// idle/single/collided census and predict the backlog, closing the loop
// between collision detection and frame sizing.
package estimate

import (
	"fmt"
	"math"

	"repro/internal/aloha"
	"repro/internal/analytic"
)

// Estimator predicts the number of tags that participated in a frame,
// given the frame's census.
type Estimator interface {
	Name() string
	// Estimate returns n̂, the estimated number of tags that responded
	// somewhere in the frame (including the identified singles).
	Estimate(c aloha.FrameCensus) float64
}

// Schoute is the classic estimator n̂ = N1 + aloha.SchouteMultiplier·Nc:
// at the ALOHA operating point a collided slot hides (e−1)/(e−2) tags on
// average.
type Schoute struct{}

// Name implements Estimator.
func (Schoute) Name() string { return "schoute" }

// Estimate implements Estimator.
func (Schoute) Estimate(c aloha.FrameCensus) float64 {
	return float64(c.Single) + aloha.SchouteMultiplier*float64(c.Collided)
}

// LowerBound is Vogt's n̂ = N1 + 2·Nc: a collision hides at least two tags.
type LowerBound struct{}

// Name implements Estimator.
func (LowerBound) Name() string { return "lowerbound" }

// Estimate implements Estimator.
func (LowerBound) Estimate(c aloha.FrameCensus) float64 {
	return float64(c.Single) + 2*float64(c.Collided)
}

// ZeroBased inverts the idle-slot count: E[N0] = F·(1−1/F)^n, so
// n̂ = ln(N0/F) / ln(1−1/F). It uses only carrier sensing — no payload
// decoding at all — which pairs naturally with QCD's cheap slot
// classification. Degenerate censuses (no idle slots) fall back to the
// Schoute estimate.
type ZeroBased struct{}

// Name implements Estimator.
func (ZeroBased) Name() string { return "zerobased" }

// Estimate implements Estimator.
func (ZeroBased) Estimate(c aloha.FrameCensus) float64 {
	f := float64(c.Size)
	if f < 2 || c.Idle <= 0 {
		return Schoute{}.Estimate(c)
	}
	n := math.Log(float64(c.Idle)/f) / math.Log(1-1/f)
	if math.IsNaN(n) || math.IsInf(n, 0) || n < 0 {
		return Schoute{}.Estimate(c)
	}
	return n
}

// MLE picks the n whose expected census (N0, N1, Nc) minimises the
// squared distance to the observed one (Vogt's minimum-distance
// estimator). The search is bounded by maxN.
type MLE struct {
	// MaxN bounds the search (default 4× the lower-bound estimate + frame).
	MaxN int
}

// Name implements Estimator.
func (MLE) Name() string { return "mle" }

// Estimate implements Estimator.
func (m MLE) Estimate(c aloha.FrameCensus) float64 {
	f := float64(c.Size)
	if f < 1 {
		return 0
	}
	hi := m.MaxN
	if hi <= 0 {
		hi = int(4*LowerBound{}.Estimate(c)) + c.Size + 4
	}
	bestN, bestD := 0.0, math.Inf(1)
	for n := 0; n <= hi; n++ {
		e0, e1, ec := analytic.FSAExpectedCensus(float64(n), f)
		d0 := e0 - float64(c.Idle)
		d1 := e1 - float64(c.Single)
		dc := ec - float64(c.Collided)
		d := d0*d0 + d1*d1 + dc*dc
		if d < bestD {
			bestD = d
			bestN = float64(n)
		}
	}
	return bestN
}

// All returns every built-in estimator.
func All() []Estimator {
	return []Estimator{Schoute{}, LowerBound{}, ZeroBased{}, MLE{}}
}

// Policy adapts an Estimator into an FSA frame policy: after each frame
// it estimates the backlog (estimate minus the singles just identified)
// and sizes the next frame to it, the Lemma-1 optimum under uncertainty.
type Policy struct {
	Est     Estimator
	Initial int
}

// NewPolicy returns an estimating frame policy.
func NewPolicy(est Estimator, initial int) Policy {
	if initial < 1 {
		panic(fmt.Sprintf("estimate: initial frame %d must be positive", initial))
	}
	return Policy{Est: est, Initial: initial}
}

// Name implements aloha.FramePolicy.
func (p Policy) Name() string { return "estimate-" + p.Est.Name() }

// FirstFrame implements aloha.FramePolicy.
func (p Policy) FirstFrame() int { return p.Initial }

// NextFrame implements aloha.FramePolicy.
func (p Policy) NextFrame(prev aloha.FrameCensus) int {
	backlog := p.Est.Estimate(prev) - float64(prev.Single)
	f := int(math.Round(backlog))
	if f < 1 {
		f = 1
	}
	return f
}

var _ aloha.FramePolicy = Policy{}
