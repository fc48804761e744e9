package gen2

import (
	"repro/internal/air"
	"repro/internal/bitstr"
	"repro/internal/crc"
	"repro/internal/epc"
	"repro/internal/signal"
	"repro/internal/tagmodel"
	"repro/internal/timing"
)

// epcReplyBits is the acknowledged-tag reply in stock Gen-2: EPC plus its
// CRC-16.
var epcReplyBits = epc.IDBits + crc.CRC16EPC.Width

// runRN16Slot models stock Gen-2: the slot opens with a bare RN16, which
// carries no integrity check, so the reader must spend an ACK exchange to
// discover whether the slot was clean. With no classification and an
// ACK-first echo, it is a different protocol from air's slot exchange,
// so it is written out here.
func runRN16Slot(cfg Config, res *Result, responders []*tagCtx, now *float64, tm timing.Model) air.Outcome {
	out := air.Outcome{Truth: signal.Classify(len(responders))}
	if len(responders) == 0 {
		out.Declared = signal.Idle
		return out
	}

	// Slot-opening replies: every responder backscatters a fresh RN16.
	var ch signal.Channel
	for _, c := range responders {
		c.rn16 = uint16(c.tag.Rng.Bits(16))
		payload := bitstr.FromUint64(uint64(c.rn16), 16)
		c.tag.BitsSent += 16
		ch.Transmit(payload)
	}
	rx := ch.Receive()
	out.Bits = 16
	*now += 16 * tm.TauMicros

	// The reader has no way to classify the reply; it optimistically ACKs
	// whatever it received.
	out.Declared = signal.Single
	res.ACKs++
	if cfg.ChargeCommands {
		res.CommandBits += epc.AckBits
		*now += float64(epc.AckBits) * tm.TauMicros
	}
	acked := uint16(rx.Signal.Uint64())

	// Tags whose RN16 matches the echo reply with EPC ‖ CRC-16.
	var epcCh signal.Channel
	matched := 0
	for _, c := range responders {
		if c.rn16 == acked {
			frame := crc.AppendBits(crc.CRC16EPC, c.tag.ID)
			c.tag.BitsSent += int64(frame.Len())
			epcCh.Transmit(frame)
			matched++
		}
	}
	if matched > 0 {
		out.Bits += epcReplyBits
		*now += float64(epcReplyBits) * tm.TauMicros
		reply := epcCh.Receive()
		if crc.VerifyBits(crc.CRC16EPC, reply.Signal) {
			id := reply.Signal.Slice(0, epc.IDBits)
			for _, c := range responders {
				if c.tag.ID.Equal(id) {
					c.tag.Identified = true
					c.tag.IdentifiedAtMicros = *now
					out.Identified = c.tag
					break
				}
			}
		}
	}
	if out.Identified == nil {
		// Garbled RN16 (nobody matched) or overlapped EPCs (CRC failed):
		// the ACK was wasted and the reader NAKs. A lone responder always
		// matches its own echo, so this branch implies a true collision.
		out.Declared = signal.Collided
		res.WastedACKs++
	}
	return out
}

// runDetectorSlot runs the CRC-CD or QCD reply format inside the Gen-2
// exchange. The slot itself is air's one slot exchange: the detector
// classifies the slot-opening reply, and only a declared single earns
// the ACK (and, for QCD, the deferred ID). Gen-2 adds the reader's side
// around it: the ACK command is charged between the two phases, so the
// acknowledged tag's identification time is restamped at the end of the
// whole exchange, and a phantom counts as a wasted ACK.
func runDetectorSlot(cfg Config, res *Result, sc *air.SlotScratch, responders []*tagmodel.Tag, now *float64, tm timing.Model) air.Outcome {
	out := sc.RunSlot(cfg.Detector, responders, *now, tm.TauMicros)
	contention := cfg.Detector.ContentionBits()
	*now += float64(contention) * tm.TauMicros
	if out.Declared != signal.Single {
		return out
	}
	res.ACKs++
	if cfg.ChargeCommands {
		res.CommandBits += epc.AckBits
		*now += float64(epc.AckBits) * tm.TauMicros
	}
	*now += float64(out.Bits-contention) * tm.TauMicros // the ID phase, if any
	if out.Identified != nil {
		out.Identified.IdentifiedAtMicros = *now
	} else {
		res.WastedACKs++
	}
	return out
}
