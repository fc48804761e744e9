package aloha

import (
	"repro/internal/air"
	"repro/internal/detect"
	"repro/internal/metrics"
	"repro/internal/sched"
	"repro/internal/tagmodel"
	"repro/internal/timing"
)

// exactSlots is the exact backend: every tag is materialised with its
// own PRNG stream, draws its slot in population index order, and
// transmits its detector payload; each slot's overlapped signal is
// classified by the detector (through the channel impairment, if any).
// The frame schedulers draw in population index order and compact
// identified tags out, so the PRNG sequence matches a per-frame scan of
// the whole population while later frames only pay for the tags still in
// contention.
type exactSlots struct {
	sc       air.SlotScratch
	buckets  sched.Frame // slot buckets of the current frame or round
	grouping sched.Frame // EDFSA's group partition

	pop    tagmodel.Population
	loaded bool // buckets holds pop's active list (FSA and Q; EDFSA partitions instead)
	det    detect.Detector
	imp    *air.Impairment
	tau    float64
	now    float64
	sess   *metrics.Session
}

// Exact returns the exact slot backend over pop: per-tag draws, detector
// payloads and verdicts, bit-identical across releases. Tags must be in
// their reset state.
func Exact(pop tagmodel.Population, det detect.Detector, tm timing.Model, opt Options) *Backend {
	if opt.Observe != nil {
		panic("aloha: the exact backend is audited through its detector, not Options.Observe")
	}
	sc := opt.scratch()
	b := &sc.exact
	b.pop, b.loaded, b.det, b.imp, b.tau, b.now = pop, false, det, opt.Impairment, tm.TauMicros, 0
	b.sess = &sc.sess
	if opt.KeepSlotLog {
		b.sess.EnableSlotLog()
	}
	return sc.start(b, len(pop), opt)
}

// inContention returns the frame scheduler whose active list holds the
// tags still in contention, loading the population on the session's
// first FSA frame or Q round.
func (b *exactSlots) inContention() *sched.Frame {
	if !b.loaded {
		b.buckets.Reset(b.pop)
		b.loaded = true
	}
	return &b.buckets
}

// runFrame runs every slot of the built frame in order.
func (b *exactSlots) runFrame(size int) {
	now := b.now
	for i := 0; i < size; i++ {
		o := b.sc.RunSlotImpaired(b.det, b.buckets.Bucket(i), b.imp, now, b.tau)
		now += float64(float64(o.Bits) * b.tau)
		b.sess.Record(o, now)
	}
	b.now = now
}

func (b *exactSlots) fsaFrame(size, _ int) {
	b.inContention().BuildActive(size)
	b.runFrame(size)
}

// partition is one frame schedule: tags self-select a group uniformly,
// and the draw lands in t.Counter (the splitting counter doubles as the
// group id).
func (b *exactSlots) partition(groups, _ int) {
	b.grouping.Build(b.pop, groups, func(t *tagmodel.Tag) int {
		if t.Identified {
			return -1
		}
		t.Counter = t.Rng.Intn(groups)
		return t.Counter
	})
}

// groupFrame buckets the group's members, already in population index
// order, by their slot draw. A member cannot be identified before its
// own group's frame runs (it responds nowhere else), so BuildSlots's
// Identified skip never changes the draws here.
func (b *exactSlots) groupFrame(g, size int) {
	b.buckets.BuildSlots(b.grouping.Bucket(g), size)
	b.runFrame(size)
}

// qRound buckets the round once at its Query: a tag whose counter would
// reach zero at slot k is exactly a tag that drew k, so the slot loop
// reads buckets instead of decrementing counters per QueryRep, without
// changing a single responder set. Unacknowledged responders enter the
// arbitrate state: they sit out the rest of the round, because a tag only
// ever responds in the one slot it drew, and re-draw at the next Query.
func (b *exactSlots) qRound(qs *QState, q, active int) {
	frameSlots := 1 << uint(q)
	b.inContention().BuildActivePrefix(frameSlots, qPlacePrefix)
	now := b.now
	for slot := 0; slot < frameSlots && active > 0; slot++ {
		responders := b.buckets.Bucket(slot)
		o := b.sc.RunSlotImpaired(b.det, responders, b.imp, now, b.tau)
		now += float64(float64(o.Bits) * b.tau)
		b.sess.Record(o, now)
		if o.Identified != nil {
			active--
		}
		if qs.Step(o.Truth) {
			break // QueryAdjust: restart the round with the new Q
		}
	}
	b.now = now
}
