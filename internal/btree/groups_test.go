package btree

import (
	"slices"
	"testing"

	"repro/internal/air"
	"repro/internal/bitstr"
	"repro/internal/crc"
	"repro/internal/detect"
	"repro/internal/metrics"
	"repro/internal/prng"
	"repro/internal/signal"
	"repro/internal/tagmodel"
)

// figure2 is the paper's BT (Figure 2) written out per tag, the
// reference the segment arena must match: every unidentified tag holds
// a counter, the tags at 0 respond, and every slot scans the whole
// population. After a collided slot the responders add a random bit and
// everyone else increments; after any other slot everyone but the
// responders decrements. hear is the order the reader hears contenders
// in: responders left unacknowledged wait at 0 for the tags that reach
// 0 next, so they move to its back.
func figure2(hear []*tagmodel.Tag, counter map[*tagmodel.Tag]int, det detect.Detector, im *air.Impairment, onIdentify func(*tagmodel.Tag)) *metrics.Session {
	s := new(metrics.Session)
	var sc air.SlotScratch
	now := 0.0
	for {
		var responders []*tagmodel.Tag
		left := 0
		for _, t := range hear {
			if !t.Identified {
				left++
				if counter[t] == 0 {
					responders = append(responders, t)
				}
			}
		}
		if left == 0 {
			return s
		}
		o := sc.RunSlotImpaired(det, responders, im, now, tm.TauMicros)
		now += float64(float64(o.Bits) * tm.TauMicros)
		s.Record(o, now)
		s.Census.Frames++
		if o.Identified != nil && onIdentify != nil {
			onIdentify(o.Identified)
		}
		collided := o.Declared == signal.Collided
		var waiting, rest []*tagmodel.Tag
		for _, t := range hear {
			switch {
			case t.Identified:
			case counter[t] > 0 && collided:
				counter[t]++
			case counter[t] > 0:
				counter[t]--
			case collided:
				counter[t] = t.Rng.Coin()
			default:
				waiting = append(waiting, t)
				continue
			}
			rest = append(rest, t)
		}
		hear = append(rest, waiting...)
	}
}

// figure2Run is Run on the reference: every unidentified tag starts at 0.
func figure2Run(pop tagmodel.Population, det detect.Detector, im *air.Impairment) *metrics.Session {
	counter := map[*tagmodel.Tag]int{}
	return figure2(pop, counter, det, im, nil)
}

// figure2ABS is RunABS on the reference: a tag starts at its previous
// order, a newcomer at a random position among them (at 0 when no tag
// has an order), drawn in population order.
func figure2ABS(pop tagmodel.Population, det detect.Detector, im *air.Impairment) *metrics.Session {
	positions := 0
	for _, t := range pop {
		if t.Slot != absUnordered {
			positions = max(positions, t.Slot+1)
		}
	}
	counter := map[*tagmodel.Tag]int{}
	for _, t := range pop {
		t.Identified = false
		t.IdentifiedAtMicros = 0
		switch {
		case t.Slot != absUnordered:
			counter[t] = t.Slot
		case positions > 0:
			counter[t] = t.Rng.Intn(positions)
		}
	}
	order := 0
	return figure2(pop, counter, det, im, func(t *tagmodel.Tag) {
		t.Slot = order
		order++
	})
}

// heard wraps a detector to log, slot by slot, the tags that transmit
// (by Index) and a -1 at every classification. Any wrapper sends the
// slot down air's generic path, so both engines log the same exchange.
type heard struct {
	detect.Detector
	log *[]int
}

func (h heard) ContentionPayload(t *tagmodel.Tag, scratch bitstr.BitString) bitstr.BitString {
	*h.log = append(*h.log, t.Index)
	return h.Detector.ContentionPayload(t, scratch)
}

func (h heard) Classify(rx signal.Reception) signal.SlotType {
	*h.log = append(*h.log, -1)
	return h.Detector.Classify(rx)
}

// sameRound reports the first difference between two sessions and the
// per-tag state of their populations, or "".
func sameRound(a, b *metrics.Session, pa, pb tagmodel.Population) string {
	switch {
	case a.Census != b.Census:
		return "census"
	case a.Detection != b.Detection:
		return "detection"
	case a.Bits != b.Bits || a.TimeMicros != b.TimeMicros || a.TagsIdentified != b.TagsIdentified:
		return "airtime or identified count"
	case !slices.Equal(a.DelaysMicros, b.DelaysMicros) || a.DelayFold() != b.DelayFold():
		return "delays"
	}
	for i := range pa {
		x, y := pa[i], pb[i]
		if x.Identified != y.Identified || x.IdentifiedAtMicros != y.IdentifiedAtMicros ||
			x.BitsSent != y.BitsSent || x.Slot != y.Slot {
			return "tag state"
		}
	}
	return ""
}

// FuzzGroupsMatchCounters checks the segment arena against Figure 2's
// per-tag counters slot by slot: the same responders in the same order
// (logged through the generic slot path), and the same census, delays,
// per-tag BitsSent, identification stamps and ABS orders, also on the
// word-kernel path. Captures and bit errors, like weak QCD, leave
// responders unacknowledged, which drives the merge rotation. With abs
// set it runs an ABS round, a round with newcomers, and a re-read, on
// one Reuse.
func FuzzGroupsMatchCounters(f *testing.F) {
	f.Add(uint8(40), uint8(0), uint8(7), uint8(0), uint8(0), false, uint8(0), uint64(1))
	f.Add(uint8(63), uint8(0), uint8(0), uint8(0), uint8(0), false, uint8(0), uint64(2)) // QCD-1
	f.Add(uint8(63), uint8(0), uint8(15), uint8(0), uint8(0), false, uint8(0), uint64(3))
	f.Add(uint8(30), uint8(1), uint8(0), uint8(0), uint8(0), false, uint8(0), uint64(4)) // CRC-CD
	f.Add(uint8(50), uint8(2), uint8(0), uint8(0), uint8(0), false, uint8(0), uint64(5)) // oracle
	f.Add(uint8(50), uint8(0), uint8(3), uint8(9), uint8(0), false, uint8(0), uint64(6)) // BER
	f.Add(uint8(50), uint8(1), uint8(0), uint8(0), uint8(5), false, uint8(0), uint64(7)) // capture
	f.Add(uint8(60), uint8(2), uint8(0), uint8(4), uint8(3), false, uint8(0), uint64(8))
	f.Add(uint8(20), uint8(0), uint8(7), uint8(0), uint8(0), true, uint8(5), uint64(9)) // ABS
	f.Add(uint8(45), uint8(0), uint8(1), uint8(3), uint8(4), true, uint8(12), uint64(10))
	f.Add(uint8(0), uint8(1), uint8(0), uint8(0), uint8(2), true, uint8(1), uint64(11))
	f.Fuzz(func(t *testing.T, size, kind, strength, ber, capture uint8, abs bool, newcomers uint8, seed uint64) {
		n := 1 + int(size)%64
		k := int(newcomers) % 16
		if !abs {
			k = 0
		}
		var det detect.Detector
		switch kind % 3 {
		case 0:
			det = detect.NewQCD(1+int(strength)%16, 64)
		case 1:
			det = detect.NewCRCCD(crc.CRC32IEEE, 64)
		default:
			det = detect.NewOracle(1, 64)
		}
		channel := func() *air.Impairment {
			if ber%16 == 0 && capture%8 == 0 {
				return nil
			}
			return &air.Impairment{BER: float64(ber%16) / 1000, CaptureProb: float64(capture%8) / 8, Rng: prng.New(^seed)}
		}
		// ref runs the reference, log the arena through the logging
		// detector and plain the arena on the word kernel, each on its
		// own copy of the population and the channel's stream.
		type side struct {
			pop tagmodel.Population
			im  *air.Impairment
			log []int
			r   Reuse
		}
		var ref, log, plain side
		for _, s := range []*side{&ref, &log, &plain} {
			s.pop = tagmodel.NewPopulation(n+k, 64, prng.New(seed))
			s.im = channel()
			s.r.imp = s.im
		}
		check := func(round string, size int) {
			t.Helper()
			pr, pl, pp := ref.pop[:size], log.pop[:size], plain.pop[:size]
			var sr, sl, sp *metrics.Session
			if abs {
				sr = figure2ABS(pr, heard{det, &ref.log}, ref.im)
				sl = log.r.RunABS(pl, heard{det, &log.log}, tm)
				sp = plain.r.RunABS(pp, det, tm)
			} else {
				sr = figure2Run(pr, heard{det, &ref.log}, ref.im)
				sl = log.r.Run(pl, heard{det, &log.log}, tm)
				sp = plain.r.Run(pp, det, tm)
			}
			if !slices.Equal(ref.log, log.log) {
				t.Fatalf("%s: the arena heard\n%v\nFigure 2 heard\n%v", round, log.log, ref.log)
			}
			if d := sameRound(sr, sl, pr, pl); d != "" {
				t.Fatalf("%s: the arena's %s differs from Figure 2's", round, d)
			}
			if d := sameRound(sr, sp, pr, pp); d != "" {
				t.Fatalf("%s: on the word kernel the arena's %s differs from Figure 2's", round, d)
			}
			if !pr.AllIdentified() {
				t.Fatalf("%s: tags left unidentified", round)
			}
		}
		if !abs {
			check("BT", n)
			return
		}
		for _, s := range []*side{&ref, &log, &plain} {
			PrepareABS(s.pop)
		}
		check("first ABS round", n)
		for _, s := range []*side{&ref, &log, &plain} {
			PrepareABSNewcomers(s.pop[n:])
		}
		check("ABS round with newcomers", n+k)
		check("ABS re-read", n+k)
	})
}
