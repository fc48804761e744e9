package aloha

import (
	"fmt"
	"math"
	mathbits "math/bits"

	"repro/internal/metrics"
	"repro/internal/prng"
	"repro/internal/sched"
	"repro/internal/signal"
	"repro/internal/timing"
)

// This file is the vectorised "stat mode" of the framed-ALOHA engines:
// Monte-Carlo round variants that produce the same *distributions* as the
// exact engines — slot censuses, airtime, identification delays,
// false-single counts — without materialising tags, payloads or signals.
//
// Exact mode's per-round cost is contract-mandated: one PRNG split per
// tag, one draw per tag per frame in population index order, one payload
// OR + verdict per slot. Stat mode keeps the probability model and drops
// the sequencing contract: all of a frame's slot choices come from one
// bulk FillIntn into a flat array, the frame is summarised as word-packed
// occupancy masks (internal/sched.Occupancy), ground-truth verdicts fall
// out of popcounts, and the only per-slot randomness left — the
// detector's 2^-e false-single misses on collided slots — is a batched
// Bernoulli coin per collided slot. Everything else (frame policies,
// EDFSA grouping and Schoute estimation, the Gen-2 Q update rule, bit
// and delay accounting) follows the exact engines line for line.
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

// StatOptions tunes a stat-mode run; the zero value is a fresh
// allocation per run with no hooks.
type StatOptions struct {
	// ConfirmEmpty mirrors Options.ConfirmEmpty for the FSA reader.
	ConfirmEmpty bool

	// Observe, if set, receives every non-idle slot's ground truth,
	// declared verdict and responder count — the shadow-oracle audit
	// feed. Idle slots are never misclassified under the ideal channel,
	// so they are not reported.
	Observe func(truth, declared signal.SlotType, responders int)

	// FrameHook mirrors Options.FrameHook (FSA only).
	FrameHook func(metrics.FrameInfo)

	// Scratch, if non-nil, supplies the reusable draw/coin/occupancy
	// buffers; one instance can serve many sessions.
	Scratch *StatScratch

	// Session, if non-nil, is Reset and reused as in Options.Session.
	Session *metrics.Session
}

func (o StatOptions) session() *metrics.Session {
	if o.Session == nil {
		return &metrics.Session{}
	}
	o.Session.Reset()
	return o.Session
}

func (o StatOptions) scratch() *StatScratch {
	if o.Scratch == nil {
		return new(StatScratch)
	}
	return o.Scratch
}

// StatScratch pools the working set of stat-mode rounds: the bulk draw
// buffers, the Bernoulli coin batch, the occupancy masks and the
// Q-adaptive slot-law table. The zero value is ready; not safe for
// concurrent use.
type StatScratch struct {
	draws  []int32 // per-tag slot draws of the current frame
	groups []int32 // EDFSA per-tag group draws
	gsize  []int32 // EDFSA per-group member counts
	coins  []uint64
	occ    sched.Occupancy
	laws   *slotLawTable
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
func (sc *StatScratch) slotLaws(q int) []prng.SlotLaw {
	if q >= slotLawQs {
		return nil
	}
	if sc.laws == nil {
		sc.laws = new(slotLawTable)
	}
	frameSlots := 1 << uint(q)
	row := sc.laws.rows[q][:min(slotLawSlots, frameSlots)]
	if sc.laws.built&(1<<uint(q)) == 0 {
		for slot := range row {
			row[slot] = prng.NewSlotLaw(frameSlots - slot)
		}
		sc.laws.built |= 1 << uint(q)
	}
	return row
}

func growInt32Buf(s []int32, n int) []int32 {
	if cap(s) < n {
		return make([]int32, n)
	}
	return s[:n]
}

func (sc *StatScratch) coinBuf(n int) []uint64 {
	if cap(sc.coins) < n {
		sc.coins = make([]uint64, n)
	}
	sc.coins = sc.coins[:n]
	return sc.coins
}

// statRun carries the per-session accumulation state shared by the three
// engines.
type statRun struct {
	model   StatModel
	sess    *metrics.Session
	rng     *prng.Source
	sc      *StatScratch
	tau     float64
	bits    int64 // total airtime so far
	canMiss bool
}

// missed decides one collided slot's verdict from a raw 64-bit coin:
// declared single iff the top e bits are zero, probability 2^-e.
func (r *statRun) missed(coin uint64, responders int) bool {
	e := r.model.missExponent(responders)
	return e >= 0 && e < 64 && coin < 1<<uint(64-e)
}

// runFrame evaluates one whole frame over the built occupancy: verdicts,
// censuses, bit/delay accounting and the optional audit feed. It returns
// the number of tags identified and the frame's ground-truth census.
func (r *statRun) runFrame(frameSize int, observe func(truth, declared signal.SlotType, responders int)) (identified, fcIdle, fcSingle, fcCollided int) {
	occ := &r.sc.occ
	cb := int64(r.model.ContentionBits)
	extra := int64(r.model.IDPhaseBits)

	// One Bernoulli coin per collided slot, batch-filled and consumed in
	// slot order so the stream is independent of how verdicts interleave.
	var coins []uint64
	if r.canMiss {
		nc := 0
		for w := 0; w < occ.Words(); w++ {
			nc += mathbits.OnesCount64(occ.MultiWord(w))
		}
		coins = r.sc.coinBuf(nc)
		r.rng.FillUint64(coins)
	}

	s := r.sess
	base := r.bits
	var declared int64 // declared-single slots so far, true or false
	ci := 0
	for w := 0; w < occ.Words(); w++ {
		busy := occ.SeenWord(w)
		multi := occ.MultiWord(w)
		for busy != 0 {
			b := mathbits.TrailingZeros64(busy)
			bit := uint64(1) << uint(b)
			busy &^= bit
			slot := w<<6 + b
			if multi&bit == 0 {
				// True single: every detector passes its own self-check
				// under the ideal channel, so the tag is identified at the
				// end of this slot's ID phase.
				declared++
				fcSingle++
				identified++
				s.TagsIdentified++
				end := base + int64(slot+1)*cb + declared*extra
				s.DelaysMicros = append(s.DelaysMicros, float64(end)*r.tau)
				if observe != nil {
					observe(signal.Single, signal.Single, 1)
				}
				continue
			}
			m := occ.Count(slot)
			fcCollided++
			s.Detection.TrueCollided++
			miss := false
			if r.canMiss {
				miss = r.missed(coins[ci], m)
				ci++
			}
			if miss {
				// False single: the reader runs the ID phase (or trusts the
				// embedded ID), the overlapped ID matches no tag, and the
				// slot ends as a phantom acknowledgement.
				declared++
				s.Detection.FalseSingle++
				s.Detection.Phantom++
				if observe != nil {
					observe(signal.Collided, signal.Single, m)
				}
			} else {
				s.Detection.DetectedCollided++
				if observe != nil {
					observe(signal.Collided, signal.Collided, m)
				}
			}
		}
	}
	fcIdle = frameSize - fcSingle - fcCollided
	r.bits = base + int64(frameSize)*cb + declared*extra
	s.Census.Idle += int64(fcIdle)
	s.Census.Single += int64(fcSingle)
	s.Census.Collided += int64(fcCollided)
	s.Bits = r.bits
	s.TimeMicros = float64(r.bits) * r.tau
	return identified, fcIdle, fcSingle, fcCollided
}

// RunFSAStat is the stat-mode counterpart of RunWithOptions: it
// identifies n tags under the frame policy with the same frame-by-frame
// semantics (including ConfirmEmpty termination), drawing each frame's
// occupancy in bulk from rng.
func RunFSAStat(n int, model StatModel, policy FramePolicy, tm timing.Model, rng *prng.Source, opt StatOptions) *metrics.Session {
	s := opt.session()
	if opt.FrameHook != nil {
		s.SetFrameHook(opt.FrameHook)
	}
	sc := opt.scratch()
	r := statRun{model: model, sess: s, rng: rng, sc: sc, tau: tm.TauMicros, canMiss: model.canMiss()}

	remaining := n
	frameSize := policy.FirstFrame()
	confirmed := false
	var slots int64
	for remaining > 0 || (opt.ConfirmEmpty && !confirmed) {
		if slots > slotCap(n) {
			panic(fmt.Sprintf("aloha: stat FSA exceeded slot cap identifying %d tags (policy %s)", n, policy.Name()))
		}
		sc.draws = growInt32Buf(sc.draws, remaining)
		rng.FillIntn(sc.draws, frameSize)
		sc.occ.Ensure(frameSize)
		sc.occ.Add(sc.draws)
		identified, fi, fs, fc := r.runFrame(frameSize, opt.Observe)
		sc.occ.Reset(sc.draws)
		remaining -= identified
		slots += int64(frameSize)
		s.EndFrame(frameSize)
		confirmed = fs == 0 && fc == 0
		if remaining > 0 || (opt.ConfirmEmpty && !confirmed) {
			frameSize = policy.NextFrame(FrameCensus{Size: frameSize, Idle: fi, Single: fs, Collided: fc, Remaining: remaining})
			if frameSize < 1 {
				panic(fmt.Sprintf("aloha: policy %s returned frame size %d", policy.Name(), frameSize))
			}
		}
	}
	return s
}

// RunEDFSAStat is the stat-mode counterpart of RunEDFSAWithOptions: one
// bulk draw partitions the backlog into groups, one bulk draw per group
// fills its frame, and the Schoute estimate update is unchanged.
func RunEDFSAStat(n int, model StatModel, cfg EDFSAConfig, tm timing.Model, rng *prng.Source, opt StatOptions) *metrics.Session {
	cfg.validate()
	first := cfg.InitialFrame
	if first < 1 {
		first = cfg.MaxFrame
	}
	s := opt.session()
	sc := opt.scratch()
	r := statRun{model: model, sess: s, rng: rng, sc: sc, tau: tm.TauMicros, canMiss: model.canMiss()}

	remaining := n
	estimate := float64(first)
	var slots int64
	for remaining > 0 {
		if slots > slotCap(n) {
			panic(fmt.Sprintf("aloha: stat EDFSA exceeded slot cap identifying %d tags", n))
		}
		groups := int(math.Ceil(estimate / float64(cfg.MaxFrame)))
		if groups < 1 {
			groups = 1
		}
		frameSize := int(math.Ceil(estimate / float64(groups)))
		if frameSize < 1 {
			frameSize = 1
		}
		if frameSize > cfg.MaxFrame {
			frameSize = cfg.MaxFrame
		}

		// Group self-selection: one uniform draw per unidentified tag.
		sc.groups = growInt32Buf(sc.groups, remaining)
		rng.FillIntn(sc.groups, groups)
		sc.gsize = growInt32Buf(sc.gsize, groups)
		for g := range sc.gsize {
			sc.gsize[g] = 0
		}
		for _, g := range sc.groups {
			sc.gsize[g]++
		}

		var roundCollided int
		for g := 0; g < groups && remaining > 0; g++ {
			members := int(sc.gsize[g])
			sc.draws = growInt32Buf(sc.draws, members)
			rng.FillIntn(sc.draws, frameSize)
			sc.occ.Ensure(frameSize)
			sc.occ.Add(sc.draws)
			s.Census.Frames++
			identified, _, _, fc := r.runFrame(frameSize, opt.Observe)
			sc.occ.Reset(sc.draws)
			remaining -= identified
			roundCollided += fc
			slots += int64(frameSize)
		}
		estimate = 2.39 * float64(roundCollided)
		if estimate < 1 {
			estimate = 1
		}
	}
	return s
}

// RunQAdaptiveStat is the stat-mode counterpart of
// RunQAdaptiveWithOptions. Gen-2 rounds restart (QueryAdjust) within a
// handful of slots, so materialising a 2^q-slot occupancy for the whole
// backlog at every Query — as the whole-frame engines above do — would
// spend O(remaining) draws per few visited slots, which is exactly the
// cost profile exact mode is stuck with. Instead each visited slot's
// responder count is drawn directly from its conditional law: when the
// R tags still active in the round each chose uniformly among the 2^q
// slots and slots are revealed in order, the next slot's count given
// the past is Binomial(R, 1/(slots left)) — the sequential
// decomposition of the multinomial, so the visited-slot process is
// distribution-identical to bulk drawing. Q-update and restart rules
// match the exact engine line for line; miss coins are drawn lazily per
// visited collided slot (a restart makes the visited count
// data-dependent, so there is no batch to size). The binomial's
// constants depend only on the slots left, so the round's first slots
// read them from the scratch's slot-law table.
func RunQAdaptiveStat(n int, model StatModel, cfg QConfig, tm timing.Model, rng *prng.Source, opt StatOptions) *metrics.Session {
	cfg.validate()
	s := opt.session()
	sc := opt.scratch()
	canMiss := model.canMiss()
	cb := int64(model.ContentionBits)
	extra := int64(model.IDPhaseBits)
	tau := tm.TauMicros

	remaining := n
	qfp := cfg.InitialQ
	var slots, bits int64
	for remaining > 0 {
		if slots > slotCap(n) {
			panic(fmt.Sprintf("aloha: stat Q-adaptive exceeded slot cap identifying %d tags", n))
		}
		q := int(math.Round(qfp))
		// qfp rounds to q exactly while it stays in [q-0.5, q+0.5):
		// q±0.5 is representable and qfp >= 0, so this is math.Round's
		// half-away-from-zero rule without the call.
		qlo, qhi := float64(q)-0.5, float64(q)+0.5
		s.Census.Frames++
		frameSlots := 1 << uint(q)
		laws := sc.slotLaws(q)
		// Tags that respond in a visited slot leave the round (identified
		// tags for good, collision losers until the next Query), so the
		// conditional binomial thins as slots are revealed.
		roundActive := remaining

		for slot := 0; slot < frameSlots && remaining > 0; slot++ {
			var m int
			if slot < len(laws) {
				m = rng.BinomialSlot(roundActive, &laws[slot])
			} else {
				law := prng.NewSlotLaw(frameSlots - slot)
				m = rng.BinomialSlot(roundActive, &law)
			}
			roundActive -= m
			bits += cb
			slots++
			switch {
			case m == 0:
				s.Census.Idle++
				if qfp -= cfg.C; qfp < 0 {
					qfp = 0
				}
			case m == 1:
				bits += extra
				s.Census.Single++
				s.TagsIdentified++
				s.DelaysMicros = append(s.DelaysMicros, float64(bits)*tau)
				remaining--
				if opt.Observe != nil {
					opt.Observe(signal.Single, signal.Single, 1)
				}
			default:
				s.Census.Collided++
				s.Detection.TrueCollided++
				miss := false
				if canMiss {
					e := model.missExponent(m)
					miss = e >= 0 && e < 64 && rng.Uint64() < 1<<uint(64-e)
				}
				if miss {
					bits += extra
					s.Detection.FalseSingle++
					s.Detection.Phantom++
					if opt.Observe != nil {
						opt.Observe(signal.Collided, signal.Single, m)
					}
				} else {
					s.Detection.DetectedCollided++
					if opt.Observe != nil {
						opt.Observe(signal.Collided, signal.Collided, m)
					}
				}
				if qfp += cfg.C; qfp > cfg.MaxQ {
					qfp = cfg.MaxQ
				}
			}
			if qfp < qlo || qfp >= qhi {
				break // QueryAdjust: restart the round with the new Q
			}
		}
	}
	s.Bits = bits
	s.TimeMicros = float64(bits) * tau
	return s
}
