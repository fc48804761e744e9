package aloha

import (
	mathbits "math/bits"

	"repro/internal/metrics"
	"repro/internal/prng"
	"repro/internal/sched"
	"repro/internal/signal"
	"repro/internal/timing"
)

// This file is the stat backend, the vectorised "stat mode" of the
// framed-ALOHA drivers: Monte-Carlo slot runs that produce the same
// *distributions* as the exact backend — slot censuses, airtime,
// identification delays, false-single counts — without materialising
// tags, payloads or signals.
//
// Exact mode's per-round cost is contract-mandated: one PRNG split per
// tag, one draw per tag per frame in population index order, one payload
// OR + verdict per slot. Stat mode keeps the probability model and drops
// the sequencing contract: all of a frame's slot choices come from one
// bulk FillIntn into a flat array, the frame is summarised as word-packed
// occupancy masks (internal/sched.Occupancy), ground-truth verdicts fall
// out of popcounts, and the only per-slot randomness left — the
// detector's 2^-e false-single misses on collided slots — is a batched
// Bernoulli coin per collided slot. Frame policies, EDFSA grouping and
// Schoute estimation, the Gen-2 Q update rule and termination are the
// drivers', shared with the exact backend by construction.
//
// Stat mode is validated distributionally, not bit-for-bit: the KS
// equivalence harness in internal/sim compares stat vs exact round
// distributions, and the shadow-oracle audit checks false singles
// against the analytic 2^-(l·(m-1)) model.

// StatModel is the closed-form behaviour of a collision detector under
// the ideal channel — all stat mode needs from internal/detect.
type StatModel struct {
	Name           string // detector name, for reports
	ContentionBits int    // airtime of every slot's contention phase
	IDPhaseBits    int    // extra airtime of a declared-single slot (0 when the ID rides in contention)

	// Strength, when positive, is the QCD random-integer length l: a
	// collision among m responders is declared single with probability
	// 2^-(l·(m-1)) (Theorem 1). When zero, MissExp is the fixed exponent
	// e of a data-independent 2^-e miss model (CRC-CD aliasing uses the
	// CRC width); a negative MissExp never misses (the oracle).
	Strength int
	MissExp  int
}

// missExponent returns the false-single exponent for m >= 2 responders,
// or a negative value when the detector cannot miss.
func (m StatModel) missExponent(responders int) int {
	if m.Strength > 0 {
		return m.Strength * (responders - 1)
	}
	return m.MissExp
}

// canMiss reports whether any collision multiplicity has a miss
// probability of at least 2^-63 — the threshold below which stat mode
// rounds the Bernoulli coin to "never" (exact mode's residual odds are
// unobservable in any feasible round count).
func (m StatModel) canMiss() bool {
	e := m.MissExp
	if m.Strength > 0 {
		e = m.Strength // the m=2 exponent is the smallest
	}
	return e >= 0 && e < 64
}

// statSlots is the stat backend. Its buffers persist across sessions in
// the Scratch; the rest is per-session state.
type statSlots struct {
	draws  []int32 // per-tag slot draws of the current frame
	gdraws []int32 // EDFSA per-tag group draws
	gsize  []int32 // EDFSA per-group member counts
	coins  []uint64
	occ    sched.Occupancy
	laws   *slotLawTable

	model   StatModel
	sess    *metrics.Session
	rng     *prng.Source
	observe func(truth, declared signal.SlotType, responders int)
	tau     float64
	bits    int64 // total airtime so far
	canMiss bool
}

// Stat returns the stat slot backend for n tags under the detector model,
// drawing from rng. Options.Impairment and Options.KeepSlotLog are exact
// backend features; setting either panics.
func Stat(n int, model StatModel, tm timing.Model, rng *prng.Source, opt Options) *Backend {
	if opt.Impairment != nil || opt.KeepSlotLog {
		panic("aloha: the stat backend models the ideal channel and keeps no slot log")
	}
	sc := opt.scratch()
	b := &sc.stat
	b.model, b.rng, b.observe, b.tau, b.bits, b.canMiss = model, rng, opt.Observe, tm.TauMicros, 0, model.canMiss()
	b.sess = &sc.sess
	return sc.start(b, n, opt)
}

// slotLawTable caches prng.NewSlotLaw(2^q - slot) for the first
// slotLawSlots slots of each q up to slotLawQs-1, rows built the first
// time their q is reached: 24 KiB, where nearly every Q-adaptive draw
// lands (a Gen-2 round restarts within a handful of slots).
type slotLawTable struct {
	built uint32 // bit q set once row q is filled
	rows  [slotLawQs][slotLawSlots]prng.SlotLaw
}

const (
	slotLawQs    = 16 // q = 0..15, the Gen-2 range
	slotLawSlots = 64
)

// slotLaws returns the cached laws of the first slots of a 2^q-slot
// round, row[slot] being the law of Binomial(·, 1/(2^q - slot)); it is
// nil when q is past the table.
func (b *statSlots) slotLaws(q int) []prng.SlotLaw {
	if q >= slotLawQs {
		return nil
	}
	if b.laws == nil {
		b.laws = new(slotLawTable)
	}
	frameSlots := 1 << uint(q)
	row := b.laws.rows[q][:min(slotLawSlots, frameSlots)]
	if b.laws.built&(1<<uint(q)) == 0 {
		for slot := range row {
			row[slot] = prng.NewSlotLaw(frameSlots - slot)
		}
		b.laws.built |= 1 << uint(q)
	}
	return row
}

// grow returns buf resized to n, reallocating only when it is too small.
func grow[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	return buf[:n]
}

// missed decides one collided slot's verdict from a raw 64-bit coin:
// declared single iff the top e bits are zero, probability 2^-e.
func (b *statSlots) missed(coin uint64, responders int) bool {
	e := b.model.missExponent(responders)
	return e >= 0 && e < 64 && coin < 1<<uint(64-e)
}

// runFrame fills the occupancy from the frame's draws and evaluates it:
// verdicts, censuses, bit/delay accounting and the optional audit feed.
func (b *statSlots) runFrame(frameSize int) {
	occ := &b.occ
	occ.Ensure(frameSize)
	occ.Add(b.draws)
	cb := int64(b.model.ContentionBits)
	extra := int64(b.model.IDPhaseBits)

	// One Bernoulli coin per collided slot, batch-filled and consumed in
	// slot order so the stream is independent of how verdicts interleave.
	var coins []uint64
	if b.canMiss {
		nc := 0
		for w := 0; w < occ.Words(); w++ {
			nc += mathbits.OnesCount64(occ.MultiWord(w))
		}
		b.coins = grow(b.coins, nc)
		coins = b.coins
		b.rng.FillUint64(coins)
	}

	s := b.sess
	base := b.bits
	var declared int64 // declared-single slots so far, true or false
	var single, collided int64
	ci := 0
	for w := 0; w < occ.Words(); w++ {
		busy := occ.SeenWord(w)
		multi := occ.MultiWord(w)
		for busy != 0 {
			tz := mathbits.TrailingZeros64(busy)
			bit := uint64(1) << uint(tz)
			busy &^= bit
			slot := w<<6 + tz
			if multi&bit == 0 {
				// True single: every detector passes its own self-check
				// under the ideal channel, so the tag is identified at the
				// end of this slot's ID phase.
				declared++
				single++
				s.TagsIdentified++
				end := base + int64(slot+1)*cb + declared*extra
				s.AddDelay(float64(end) * b.tau)
				if b.observe != nil {
					b.observe(signal.Single, signal.Single, 1)
				}
				continue
			}
			m := occ.Count(slot)
			collided++
			s.Detection.TrueCollided++
			miss := false
			if b.canMiss {
				miss = b.missed(coins[ci], m)
				ci++
			}
			if miss {
				// False single: the reader runs the ID phase (or trusts the
				// embedded ID), the overlapped ID matches no tag, and the
				// slot ends as a phantom acknowledgement.
				declared++
				s.Detection.FalseSingle++
				s.Detection.Phantom++
				if b.observe != nil {
					b.observe(signal.Collided, signal.Single, m)
				}
			} else {
				s.Detection.DetectedCollided++
				if b.observe != nil {
					b.observe(signal.Collided, signal.Collided, m)
				}
			}
		}
	}
	occ.Reset(b.draws)
	b.bits = base + int64(frameSize)*cb + declared*extra
	s.Census.Idle += int64(frameSize) - single - collided
	s.Census.Single += single
	s.Census.Collided += collided
	s.Bits = b.bits
	s.TimeMicros = float64(b.bits) * b.tau
}

func (b *statSlots) fsaFrame(size, active int) {
	b.draws = grow(b.draws, active)
	b.rng.FillIntn(b.draws, size)
	b.runFrame(size)
}

// partition draws every active tag's group in one bulk fill and keeps
// only the group sizes: members are exchangeable, so each group's frame
// needs nothing but its head count.
func (b *statSlots) partition(groups, active int) {
	b.gdraws = grow(b.gdraws, active)
	b.rng.FillIntn(b.gdraws, groups)
	b.gsize = grow(b.gsize, groups)
	clear(b.gsize)
	for _, g := range b.gdraws {
		b.gsize[g]++
	}
}

func (b *statSlots) groupFrame(g, size int) {
	b.draws = grow(b.draws, int(b.gsize[g]))
	b.rng.FillIntn(b.draws, size)
	b.runFrame(size)
}

// qRound does not materialise the round's occupancy: Gen-2 rounds
// restart (QueryAdjust) within a handful of slots, so drawing a 2^q-slot
// occupancy for the whole backlog at every Query would spend O(active)
// draws per few visited slots — exactly the cost profile exact mode is
// stuck with. Instead each visited slot's responder count is drawn
// directly from its conditional law: when the R tags still active in the
// round each chose uniformly among the 2^q slots and slots are revealed
// in order, the next slot's count given the past is Binomial(R, 1/(slots
// left)) — the sequential decomposition of the multinomial, so the
// visited-slot process is distribution-identical to bulk drawing. Miss
// coins are drawn lazily per visited collided slot (a restart makes the
// visited count data-dependent, so there is no batch to size). The
// binomial's constants depend only on the slots left, so the round's
// first slots read them from the slot-law table. The loop makes no
// dynamic call per slot.
func (b *statSlots) qRound(qs *QState, q, active int) {
	s, rng := b.sess, b.rng
	cb, extra := int64(b.model.ContentionBits), int64(b.model.IDPhaseBits)
	bits := b.bits
	frameSlots := 1 << uint(q)
	laws := b.slotLaws(q)
	// Tags that respond in a visited slot leave the round (identified
	// tags for good, collision losers until the next Query), so the
	// conditional binomial thins as slots are revealed.
	roundActive := active
	for slot := 0; slot < frameSlots && active > 0; slot++ {
		var m int
		if slot < len(laws) {
			m = rng.BinomialSlot(roundActive, &laws[slot])
		} else {
			law := prng.NewSlotLaw(frameSlots - slot)
			m = rng.BinomialSlot(roundActive, &law)
		}
		roundActive -= m
		bits += cb
		moved := false
		switch {
		case m == 0:
			s.Census.Idle++
			moved = qs.Step(signal.Idle)
		case m == 1:
			bits += extra
			s.Census.Single++
			s.TagsIdentified++
			s.AddDelay(float64(bits) * b.tau)
			active--
			if b.observe != nil {
				b.observe(signal.Single, signal.Single, 1)
			}
		default:
			s.Census.Collided++
			s.Detection.TrueCollided++
			miss := false
			if b.canMiss {
				e := b.model.missExponent(m)
				miss = e >= 0 && e < 64 && rng.Uint64() < 1<<uint(64-e)
			}
			if miss {
				bits += extra
				s.Detection.FalseSingle++
				s.Detection.Phantom++
				if b.observe != nil {
					b.observe(signal.Collided, signal.Single, m)
				}
			} else {
				s.Detection.DetectedCollided++
				if b.observe != nil {
					b.observe(signal.Collided, signal.Collided, m)
				}
			}
			moved = qs.Step(signal.Collided)
		}
		if moved {
			break // QueryAdjust: restart the round with the new Q
		}
	}
	b.bits = bits
	s.Bits = bits
	s.TimeMicros = float64(bits) * b.tau
}
