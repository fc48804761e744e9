package aloha

import (
	"fmt"

	"repro/internal/air"
	"repro/internal/metrics"
	"repro/internal/signal"
)

// slotBackend runs the slots a policy driver announces and records every
// one into the session, which is the drivers' one source of counts:
// frame censuses, identifications and the slot total. Each backend keeps
// its own draw order — exact mode one draw per tag per frame in
// population index order, stat mode one bulk fill per frame — so the
// drivers never touch randomness.
type slotBackend interface {
	// fsaFrame has the active tags still in contention each pick one of
	// size slots, and runs the frame.
	fsaFrame(size, active int)
	// partition has each of the active tags draw one of groups groups.
	partition(groups, active int)
	// groupFrame runs a size-slot frame over group g of the last partition.
	groupFrame(g, size int)
	// qRound runs one Gen-2 round of 2^q slots over the active tags, slot
	// by slot, stepping qs after each; it stops when qs asks for a
	// QueryAdjust, the round ends or every active tag is identified.
	qRound(qs *QState, q, active int)
}

// Options tunes a session's reader and backend. The zero value is the
// ideal channel with fresh working state and no hooks.
type Options struct {
	// ConfirmEmpty makes the FSA reader run one final frame after the
	// last identification and stop only when it observes a frame of pure
	// idle slots. A real reader cannot know the tag count, so this is how
	// FSA inventory actually terminates; the paper's Table VII idle
	// counts include this trailing frame.
	ConfirmEmpty bool

	// Impairment applies a noisy/capturing channel to every slot (nil =
	// ideal channel). Exact backend only: stat mode models the ideal
	// channel.
	Impairment *air.Impairment

	// KeepSlotLog records a per-slot event log on the session (see
	// metrics.Session.SlotLog), enabling clock-retiming analyses. Exact
	// backend only.
	KeepSlotLog bool

	// Observe, if set, receives every non-idle slot's ground truth,
	// declared verdict and responder count — the shadow-oracle audit
	// feed. Stat backend only (the exact backend is audited through its
	// detector); idle slots are never misclassified under the ideal
	// channel, so they are not reported.
	Observe func(truth, declared signal.SlotType, responders int)

	// FrameHook, if set, receives each completed FSA frame's census delta
	// (see metrics.Session.SetFrameHook); used for per-frame tracing.
	// EDFSA and Q-adaptive frames never reach it: a Gen-2 Query every few
	// slots would flood any per-frame consumer.
	FrameHook func(metrics.FrameInfo)

	// Scratch, if non-nil, supplies the reusable working set — metrics
	// session included — so that one buffer set serves many sessions
	// (the simulator keeps one per worker). When nil the backend
	// allocates a fresh one per session.
	Scratch *Scratch
}

// scratch returns the working set to run in, pooled or fresh, with its
// session reset.
func (o Options) scratch() *Scratch {
	sc := o.Scratch
	if sc == nil {
		sc = new(Scratch)
	}
	sc.sess.Reset()
	return sc
}

// Scratch pools the working set of identification sessions in either
// mode: the metrics session with its delay and log slices, the exact
// backend's slot buffers and frame schedulers, the stat backend's draw,
// coin and occupancy buffers and Q slot-law table, and the Backend
// itself. The zero value is ready. A Backend built on a scratch, and the
// session it returns, are valid until the next Exact or Stat call on the
// scratch; not safe for concurrent use.
type Scratch struct {
	sess    metrics.Session
	backend Backend
	exact   exactSlots
	stat    statSlots
}

// Backend is one identification session's slot backend, built by Exact
// or Stat; its FSA, EDFSA and QAdaptive methods drive the session under a
// policy family and return its metrics. A Backend runs one session.
type Backend struct {
	slots        slotBackend
	sess         *metrics.Session
	n            int // tags in the field
	confirmEmpty bool
	q            QState // Q-adaptive's estimate, kept here so qRound's pointer costs no allocation
}

// start finishes Exact and Stat: it installs the options shared by both
// backends and hands out the scratch's Backend.
func (sc *Scratch) start(slots slotBackend, n int, opt Options) *Backend {
	if opt.FrameHook != nil {
		sc.sess.SetFrameHook(opt.FrameHook)
	}
	sc.backend = Backend{slots: slots, sess: &sc.sess, n: n, confirmEmpty: opt.ConfirmEmpty}
	return &sc.backend
}

// remaining returns how many tags are still unidentified.
func (b *Backend) remaining() int { return b.n - int(b.sess.TagsIdentified) }

// pastCap reports whether the session has run past slotCap, a defence
// against livelock: identifying n tags needs O(n) slots in expectation,
// so a healthy run never gets there.
func (b *Backend) pastCap() bool { return b.sess.Census.Slots() > slotCap(b.n) }

// overCap reports a session past slotCap.
func (b *Backend) overCap(policy string) {
	panic(fmt.Sprintf("aloha: %s exceeded slot cap identifying %d tags", policy, b.n))
}

func slotCap(n int) int64 { return int64(n)*1000 + 1_000_000 }
