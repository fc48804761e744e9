// Package gen2 implements a command-level EPCglobal Class-1 Generation-2
// inventory round: the reader issues Query / QueryRep / QueryAdjust / ACK
// commands; tags run the Ready → Arbitrate → Reply → Acknowledged state
// machine with a 15-bit slot counter and an RN16 handshake. Reader
// command airtime and tag reply airtime are both charged.
//
// The paper's QCD is specified as a drop-in for the slot-opening tag
// reply ("the QCD scheme does not require any modification on
// upper-level air protocols"). In stock Gen-2 that reply is a bare RN16,
// which carries no self-check at all: the reader cannot reliably tell one
// RN16 from two overlapped ones. This package makes the claim concrete by
// letting the slot-opening reply be:
//
//   - RN16 (stock Gen-2): collisions detected only when the garbled RN16
//     fails the later ACK echo, wasting a full ACK exchange;
//   - CRC-CD: the tag fronts its EPC+CRC in the reply;
//   - QCD: the tag fronts the r ‖ r̄ preamble and sends the EPC only
//     after a clean singulation.
package gen2

import (
	"fmt"

	"repro/internal/air"
	"repro/internal/aloha"
	"repro/internal/detect"
	"repro/internal/epc"
	"repro/internal/metrics"
	"repro/internal/tagmodel"
	"repro/internal/timing"
)

// TagState is the Gen-2 inventory state of one tag.
type TagState int

// Gen-2 tag states (the subset inventory uses).
const (
	StateReady TagState = iota
	StateArbitrate
	StateReply
	StateAcknowledged
)

func (s TagState) String() string {
	switch s {
	case StateReady:
		return "ready"
	case StateArbitrate:
		return "arbitrate"
	case StateReply:
		return "reply"
	case StateAcknowledged:
		return "acknowledged"
	default:
		return fmt.Sprintf("TagState(%d)", int(s))
	}
}

// ReplyScheme selects what a tag backscatters when its slot counter hits
// zero.
type ReplyScheme int

// Reply schemes.
const (
	// ReplyRN16 is stock Gen-2: a bare 16-bit random number with no
	// integrity check; collisions surface only at the ACK echo.
	ReplyRN16 ReplyScheme = iota
	// ReplyCRCCD fronts the EPC + CRC in the slot-opening reply.
	ReplyCRCCD
	// ReplyQCD fronts the QCD preamble; the EPC follows a clean single.
	ReplyQCD
)

func (r ReplyScheme) String() string {
	switch r {
	case ReplyRN16:
		return "rn16"
	case ReplyCRCCD:
		return "crccd"
	case ReplyQCD:
		return "qcd"
	default:
		return fmt.Sprintf("ReplyScheme(%d)", int(r))
	}
}

// Config parameterises an inventory run.
type Config struct {
	// Scheme is the slot-opening reply format.
	Scheme ReplyScheme
	// Detector backs the CRC-CD/QCD schemes (ignored for RN16).
	Detector detect.Detector
	// QConfig's InitialQ, C and MaxQ drive the Q algorithm (defaults
	// 4.0 / 0.3 / 15).
	aloha.QConfig
	// ChargeCommands includes reader-to-tag command airtime in the session
	// time (the paper's methodology excludes it; Gen-2 reality includes it).
	ChargeCommands bool
}

// DefaultConfig returns a Gen-2 inventory configuration for the scheme.
func DefaultConfig(scheme ReplyScheme, det detect.Detector) Config {
	return Config{
		Scheme: scheme, Detector: det,
		QConfig:        aloha.DefaultQConfig(),
		ChargeCommands: true,
	}
}

func (c Config) validate() {
	if c.Scheme != ReplyRN16 && c.Detector == nil {
		panic("gen2: scheme needs a detector")
	}
	if err := c.QConfig.Validate(); err != nil {
		panic(err)
	}
}

// tagCtx is the per-tag inventory context.
type tagCtx struct {
	tag   *tagmodel.Tag
	state TagState
	slot  int
	rn16  uint16
}

// Result extends the session metrics with Gen-2 specific counters.
type Result struct {
	Session *metrics.Session
	// Commands counts reader commands by kind.
	Queries, QueryReps, QueryAdjusts, ACKs int64
	// CommandBits is the reader-to-tag airtime.
	CommandBits int64
	// WastedACKs counts ACK exchanges spent on garbled RN16s (the stock
	// Gen-2 cost of having no slot-level collision detection).
	WastedACKs int64
}

func slotCap(n int) int64 { return int64(n)*1000 + 1_000_000 }

// Run inventories the population and returns the metrics. Tags must be
// reset. The session's Frames field counts Query/QueryAdjust rounds.
func Run(pop tagmodel.Population, cfg Config, tm timing.Model) *Result {
	cfg.validate()
	res := &Result{Session: &metrics.Session{}}
	s := res.Session

	ctxs := make([]*tagCtx, len(pop))
	for i, t := range pop {
		ctxs[i] = &tagCtx{tag: t, state: StateReady}
	}

	now := 0.0
	var slots int64
	remaining := len(pop)
	qs := cfg.State()
	var sc air.SlotScratch
	var responders []*tagCtx
	var tags []*tagmodel.Tag // responders' tags, for the detector slot

	charge := func(bits int) {
		if cfg.ChargeCommands {
			res.CommandBits += int64(bits)
			now += float64(bits) * tm.TauMicros
		}
	}

	for remaining > 0 {
		if slots > slotCap(len(pop)) {
			panic(fmt.Sprintf("gen2: exceeded slot cap identifying %d tags (%s)", len(pop), cfg.Scheme))
		}
		q := qs.Query()
		res.Queries++
		s.Census.Frames++
		charge(epc.QueryBits)
		frameSlots := 1 << uint(q)
		for _, c := range ctxs {
			if c.state == StateAcknowledged {
				continue
			}
			c.slot = c.tag.Rng.Intn(frameSlots)
			c.state = StateArbitrate
		}

		for slotIdx := 0; slotIdx < frameSlots && remaining > 0; slotIdx++ {
			if slotIdx > 0 {
				res.QueryReps++
				charge(epc.QueryRepBits)
			}
			responders, tags = responders[:0], tags[:0]
			for _, c := range ctxs {
				if c.state == StateArbitrate && c.slot == 0 {
					responders = append(responders, c)
					tags = append(tags, c.tag)
					c.state = StateReply
				}
			}
			var outcome air.Outcome
			if cfg.Scheme == ReplyRN16 {
				outcome = runRN16Slot(cfg, res, responders, &now, tm)
			} else {
				outcome = runDetectorSlot(cfg, res, &sc, tags, &now, tm)
			}
			s.Record(outcome, now)
			slots++
			if outcome.Identified != nil {
				remaining--
			}
			// Unacknowledged responders return to arbitrate and sit out
			// the rest of the round.
			for _, c := range responders {
				if !c.tag.Identified {
					c.state = StateArbitrate
					c.slot = -1
				} else {
					c.state = StateAcknowledged
				}
			}
			if qs.Step(outcome.Truth) {
				res.QueryAdjusts++
				charge(epc.QueryAdjustBits)
				break
			}
			// QueryRep decrements surviving counters.
			for _, c := range ctxs {
				if c.state == StateArbitrate && c.slot > 0 {
					c.slot--
				}
			}
		}
	}
	return res
}
