// Package aloha implements Framed Slotted ALOHA (FSA) anti-collision
// algorithms (Section III-A of the paper): the reader announces a frame of
// F slots, every unidentified tag picks one uniformly at random and
// responds there, and the procedure repeats until all tags are identified.
//
// Frame sizing is pluggable: the paper's evaluation uses a constant frame
// length (Table VI), Lemma 1 shows the λ = 1/e optimum at F = n, and the
// dynamic policies (Schoute backlog estimation, EPC Gen-2 Q) are provided
// for the frame-policy ablation.
//
// Each policy family has one session driver, a method of Backend: FSA
// under any FramePolicy, EDFSA, and the Gen-2 Q algorithm (QAdaptive).
// The driver decides frames, groups and rounds; the backend runs their
// slots. Exact runs them over a materialised population, per-tag PRNG
// streams and a detector; Stat draws each frame's occupancy from one
// stream and evaluates verdicts from a closed-form detector model.
package aloha

import (
	"fmt"
	"math"

	"repro/internal/metrics"
)

// FrameCensus summarises one completed frame for the frame policy.
type FrameCensus struct {
	Size     int
	Idle     int
	Single   int
	Collided int
	// Remaining is the number of still-unidentified tags; policies must
	// not use it for sizing (the reader cannot know it) — it exists so
	// tests can assert policies ignore it — except the clairvoyant Optimal
	// policy used to validate Lemma 1.
	Remaining int
}

// FramePolicy chooses FSA frame sizes.
type FramePolicy interface {
	Name() string
	// FirstFrame returns the size of the initial frame.
	FirstFrame() int
	// NextFrame returns the size of the next frame given the previous
	// frame's census. It is called only when unidentified tags remain, so
	// prev.Collided >= 1 unless detection failed; implementations must
	// still return a positive size in that case.
	NextFrame(prev FrameCensus) int
}

// Fixed is the paper's evaluation policy: a constant frame length.
type Fixed struct{ F int }

// NewFixed returns a constant-size policy. It panics if f < 1.
func NewFixed(f int) Fixed {
	if f < 1 {
		panic(fmt.Sprintf("aloha: frame size %d must be positive", f))
	}
	return Fixed{F: f}
}

// Name implements FramePolicy.
func (p Fixed) Name() string { return fmt.Sprintf("fixed-%d", p.F) }

// FirstFrame implements FramePolicy.
func (p Fixed) FirstFrame() int { return p.F }

// NextFrame implements FramePolicy.
func (p Fixed) NextFrame(FrameCensus) int { return p.F }

// SchouteMultiplier is Schoute's backlog factor: the expected number of
// tags in a collided slot of a frame loaded at one tag per slot, the
// Lemma-1 operating point. A slot's count is Poisson(1) there, so the
// mean over counts of two or more is (1 − e⁻¹)/(1 − 2e⁻¹) =
// (e−1)/(e−2) ≈ 2.392; the literature, and every golden, uses 2.39.
const SchouteMultiplier = 2.39

// Backlog sizes every frame after the first to the backlog it estimates
// from the previous frame's c collided slots, ⌈Factor·c⌉ (at least 1):
// Schoute's estimator, the basis of dynamic FSA per Lee et al., or
// Vogt's simpler lower bound.
type Backlog struct {
	Initial int
	Factor  float64
	name    string
}

// NewSchoute returns Schoute's policy, n̂ = SchouteMultiplier·c, starting
// from the given first frame.
func NewSchoute(initial int) Backlog { return newBacklog("schoute", initial, SchouteMultiplier) }

// NewLowerBound returns Vogt's policy, n̂ = 2·c: a collision hides at
// least two tags.
func NewLowerBound(initial int) Backlog { return newBacklog("lowerbound", initial, 2) }

func newBacklog(name string, initial int, factor float64) Backlog {
	if initial < 1 {
		panic("aloha: initial frame must be positive")
	}
	return Backlog{Initial: initial, Factor: factor, name: name}
}

// Name implements FramePolicy.
func (p Backlog) Name() string { return p.name }

// FirstFrame implements FramePolicy.
func (p Backlog) FirstFrame() int { return p.Initial }

// NextFrame implements FramePolicy.
func (p Backlog) NextFrame(prev FrameCensus) int {
	return max(1, int(math.Ceil(p.Factor*float64(prev.Collided))))
}

// Optimal is the clairvoyant policy that always sets F to the number of
// remaining tags, the Lemma-1 optimum; it exists to validate λ_max ≈ 1/e
// and as the upper baseline in ablations.
type Optimal struct{ N int }

// Name implements FramePolicy.
func (p Optimal) Name() string { return "optimal" }

// FirstFrame implements FramePolicy.
func (p Optimal) FirstFrame() int { return max(1, p.N) }

// NextFrame implements FramePolicy.
func (p Optimal) NextFrame(prev FrameCensus) int { return max(1, prev.Remaining) }

// FSA identifies the population frame by frame: every tag still in
// contention picks one slot of each announced frame, and policy sizes the
// next frame from the previous frame's census. With Options.ConfirmEmpty
// the reader stops only after a frame of pure idle slots. FSA is the one
// driver whose frames reach Options.FrameHook.
func (b *Backend) FSA(policy FramePolicy) *metrics.Session {
	s := b.sess
	size := policy.FirstFrame()
	for confirmed := false; b.remaining() > 0 || (b.confirmEmpty && !confirmed); {
		if b.pastCap() {
			b.overCap("FSA policy " + policy.Name())
		}
		before := s.Census
		b.slots.fsaFrame(size, b.remaining())
		s.EndFrame(size)
		fc := FrameCensus{
			Size:      size,
			Idle:      int(s.Census.Idle - before.Idle),
			Single:    int(s.Census.Single - before.Single),
			Collided:  int(s.Census.Collided - before.Collided),
			Remaining: b.remaining(),
		}
		// An all-idle frame is the reader's evidence that the field is
		// empty; it terminates the inventory when ConfirmEmpty is set.
		confirmed = fc.Single == 0 && fc.Collided == 0
		if b.remaining() > 0 || (b.confirmEmpty && !confirmed) {
			if size = policy.NextFrame(fc); size < 1 {
				panic(fmt.Sprintf("aloha: policy %s returned frame size %d", policy.Name(), size))
			}
		}
	}
	return s
}
