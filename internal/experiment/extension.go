package experiment

import (
	"fmt"

	"repro/internal/aloha"
	"repro/internal/crc"
	"repro/internal/detect"
	"repro/internal/epc"
	"repro/internal/estimate"
	"repro/internal/mobility"
	"repro/internal/prng"
	"repro/internal/report"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/timing"
)

// AblationEstimate evaluates cardinality-estimating frame policies
// (Section VI-C's "the reader cannot exactly know the number of tags in
// advance"): slot usage of each estimator versus the fixed Table VI frame
// and the clairvoyant optimum, all under QCD.
func AblationEstimate(o Options) (Renderable, error) {
	o = o.normalize()
	c, _ := epc.CaseByName("II")
	det := detect.NewQCD(8, epc.IDBits)
	tm := timing.Default

	t := report.NewTable("Ablation: frame sizing via cardinality estimation (case II, QCD-8)",
		"policy", "slots (mean)", "throughput", "time")

	type policy struct {
		name string
		mk   func() aloha.FramePolicy
	}
	pols := []policy{{"fixed-300 (Table VI)", func() aloha.FramePolicy { return aloha.NewFixed(c.Slots) }}}
	for _, est := range estimate.All() {
		pols = append(pols, policy{"estimate-" + est.Name(), func() aloha.FramePolicy {
			return estimate.NewPolicy(est, c.Slots)
		}})
	}
	pols = append(pols, policy{"optimal (clairvoyant)", func() aloha.FramePolicy { return aloha.Optimal{N: c.Tags} }})

	rounds := perRound(o, len(pols), func(k int, seed uint64, rs *sim.RoundScratch) []float64 {
		pop := rs.Population(c.Tags, epc.IDBits, prng.New(seed))
		s := aloha.Exact(pop, det, tm, aloha.Options{Scratch: rs.Aloha()}).FSA(pols[k].mk())
		return []float64{float64(s.Census.Slots()), s.Census.Throughput(), s.TimeMicros}
	})
	for k, p := range pols {
		m := means(rounds[k])
		t.AddRow(p.name, report.F(m[0], 0), report.F(m[1], 3), fmtMicros(m[2]))
	}
	t.AddNote("estimators close most of the gap between a mis-sized fixed frame and the Lemma-1 optimum")
	return t, nil
}

// Mobility quantifies the operational consequence of Figure 6's delay
// reduction: in a field tags flow through (Poisson arrivals, finite
// dwell), a slower reader loses more tags. Compares BT and ABS under
// CRC-CD and QCD across dwell times.
func Mobility(o Options) (Renderable, error) {
	o = o.normalize()
	t := report.NewTable("Mobility: miss rate of a flowing tag population (2000 tags/s)",
		"dwell", "protocol", "CRC-CD miss", "QCD-8 miss", "QCD reads/CRC reads")
	const rate = 2000
	duration := 2e6 // 2 s simulated
	dwellsMs := []float64{3, 5, 10, 25}
	protos := []mobility.Protocol{mobility.ProtoBT, mobility.ProtoABS}
	dets := []detect.Detector{detect.NewCRCCD(crc.CRC32IEEE, epc.IDBits), detect.NewQCD(8, epc.IDBits)}
	// Run i is (dwell i/4, protocol i/2%2, detector i%2).
	res := make([]mobility.Result, len(dwellsMs)*len(protos)*len(dets))
	o.each(len(res), func(i int, _ *sim.RoundScratch) {
		arr := mobility.Arrivals{RatePerSecond: rate, DwellMicros: dwellsMs[i/4] * 1000}
		res[i] = mobility.Run(protos[i/2%2], dets[i%2], arr, duration, o.Seed)
	})
	for i := 0; i < len(res); i += 2 {
		crcRes, qcdRes := res[i], res[i+1]
		ratio := 0.0
		if crcRes.Read > 0 {
			ratio = float64(qcdRes.Read) / float64(crcRes.Read)
		}
		t.AddRow(
			fmt.Sprintf("%.0fms", dwellsMs[i/4]),
			protos[i/2%2].String(),
			report.Pct(crcRes.MissRate()),
			report.Pct(qcdRes.MissRate()),
			report.F(ratio, 2),
		)
	}
	t.AddNote("miss = tag left the field unread; QCD's shorter slots read the same flow with far fewer losses")
	return t, nil
}

// AblationEnergy accounts per-tag transmitted bits — the dominant energy
// cost of a passive tag's backscatter — under each detector and protocol.
// QCD tags transmit only 2l bits in non-single slots, so their energy
// budget drops along with the reader's airtime.
func AblationEnergy(o Options) (Renderable, error) {
	o = o.normalize()
	c, _ := epc.CaseByName("I")
	tm := timing.Default
	t := report.NewTable("Ablation: mean bits transmitted per tag (case I)",
		"protocol", "CRC-CD", "QCD-8", "saving")
	protos := []string{"fsa", "bt"}
	dets := []detect.Detector{detect.NewCRCCD(crc.CRC32IEEE, epc.IDBits), detect.NewQCD(8, epc.IDBits)}
	// Configuration k is (protocol k/2, detector k%2); a round yields
	// every tag's transmitted bits, in population order.
	rounds := perRound(o, len(protos)*len(dets), func(k int, seed uint64, rs *sim.RoundScratch) []int64 {
		pop := rs.Population(c.Tags, epc.IDBits, prng.New(seed))
		if protos[k/2] == "fsa" {
			aloha.Exact(pop, dets[k%2], tm, aloha.Options{Scratch: rs.Aloha()}).FSA(aloha.NewFixed(c.Slots))
		} else {
			rs.BT().Run(pop, dets[k%2], tm)
		}
		bits := make([]int64, len(pop))
		for i, tag := range pop {
			bits[i] = tag.BitsSent
		}
		return bits
	})
	for p, proto := range protos {
		var means [2]float64 // CRC-CD, QCD
		for d := range means {
			var acc stats.Accumulator
			for _, bits := range rounds[2*p+d] {
				for _, b := range bits {
					acc.Add(float64(b))
				}
			}
			means[d] = acc.Mean()
		}
		saving := (means[0] - means[1]) / means[0]
		t.AddRow(proto,
			report.F(means[0], 0)+" bits",
			report.F(means[1], 0)+" bits",
			report.Pct(saving))
	}
	t.AddNote("CRC-CD tags retransmit the 96-bit ID+CRC in every contention; QCD tags send 16-bit preambles until singled out")
	return t, nil
}

// AblationOverhead re-evaluates EI when reader-to-tag command airtime
// (Query/QueryRep/ACK, which the paper's methodology excludes) is charged
// per slot, showing the headline gain is robust to the excluded term.
func AblationOverhead(o Options) (Renderable, error) {
	o = o.normalize()
	t := report.NewTable("Ablation: EI with Gen-2 command overhead charged per slot (FSA)",
		"case", "EI (paper methodology)", "EI (with command bits)")
	// Per-slot command cost: a QueryRep opens every slot; a single slot
	// additionally carries an ACK. Both schemes pay the same commands,
	// which dilutes — but must not erase — the saving. Each product is
	// rounded (explicit conversion) before it is summed.
	const perSlot = epc.QueryRepBits
	const perSingle = epc.AckBits
	for _, c := range o.cases() {
		crcAgg, err := o.run(c, "fsa", "crccd", 8)
		if err != nil {
			return nil, err
		}
		qcdAgg, err := o.run(c, "fsa", "qcd", 8)
		if err != nil {
			return nil, err
		}
		ei := (crcAgg.TimeMicros.Mean() - qcdAgg.TimeMicros.Mean()) / crcAgg.TimeMicros.Mean()
		crcT := crcAgg.TimeMicros.Mean() + float64(perSlot*crcAgg.Slots.Mean()) + float64(perSingle*crcAgg.Single.Mean())
		qcdT := qcdAgg.TimeMicros.Mean() + float64(perSlot*qcdAgg.Slots.Mean()) + float64(perSingle*qcdAgg.Single.Mean())
		eiOver := (crcT - qcdT) / crcT
		t.AddRow(c.Name, report.F(ei, 4), report.F(eiOver, 4))
	}
	t.AddNote("command bits at τ=1μs: QueryRep=%d per slot, ACK=%d per single slot, identical under both schemes", perSlot, perSingle)
	return t, nil
}
