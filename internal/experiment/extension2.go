package experiment

import (
	"fmt"

	"repro/internal/air"
	"repro/internal/aloha"
	"repro/internal/crc"
	"repro/internal/deploy"
	"repro/internal/detect"
	"repro/internal/epc"
	"repro/internal/gen2"
	"repro/internal/prng"
	"repro/internal/report"
	"repro/internal/sim"
	"repro/internal/tagmodel"
	"repro/internal/timing"
)

// Gen2 evaluates the paper's compatibility claim at the command level:
// the full EPC Gen-2 inventory exchange (Query/QueryRep/ACK airtime
// charged, RN16 handshake semantics) with the slot-opening reply being
// stock RN16, CRC-CD, or QCD.
func Gen2(o Options) (Renderable, error) {
	o = o.normalize()
	c, _ := epc.CaseByName("II")
	t := report.NewTable("Gen-2 command-level inventory (case II, commands charged)",
		"reply scheme", "time", "wasted ACKs", "queries", "command bits", "EI vs RN16")
	configs := []gen2.Config{
		gen2.DefaultConfig(gen2.ReplyRN16, nil),
		gen2.DefaultConfig(gen2.ReplyCRCCD, detect.NewCRCCD(crc.CRC32IEEE, epc.IDBits)),
		gen2.DefaultConfig(gen2.ReplyQCD, detect.NewQCD(8, epc.IDBits)),
	}
	rounds := perRound(o, len(configs), func(k int, seed uint64, rs *sim.RoundScratch) []float64 {
		pop := rs.Population(c.Tags, epc.IDBits, prng.New(seed))
		res := gen2.Run(pop, configs[k], timing.Default)
		return []float64{res.Session.TimeMicros, float64(res.WastedACKs), float64(res.Queries), float64(res.CommandBits)}
	})
	var baseline float64
	for i, cfg := range configs {
		m := means(rounds[i]) // time, wasted ACKs, queries, command bits
		if i == 0 {
			baseline = m[0]
		}
		ei := (baseline - m[0]) / baseline
		t.AddRow(cfg.Scheme.String(),
			fmtMicros(m[0]),
			report.F(m[1], 0),
			report.F(m[2], 1),
			report.F(m[3], 0),
			report.Pct(ei))
	}
	t.AddNote("stock RN16 carries no self-check: every collided slot costs a full wasted ACK exchange")
	return t, nil
}

// Noise sweeps the channel bit-error rate: noise fails the self-check of
// both schemes closed (singles re-arbitrated, never mis-read), so
// identification slows gracefully; QCD's 16-bit preamble is a smaller
// noise target than the 96-bit ID+CRC.
func Noise(o Options) (Renderable, error) {
	o = o.normalize()
	c, _ := epc.CaseByName("I")
	s := report.NewSeries("Noise: identification time vs channel BER (case I, FSA)",
		"BER", "time (μs)", "CRC-CD", "QCD-8", "EI")
	tm := timing.Default
	bers := []float64{0, 1e-4, 1e-3, 3e-3, 1e-2}
	dets := []detect.Detector{detect.NewCRCCD(crc.CRC32IEEE, epc.IDBits), detect.NewQCD(8, epc.IDBits)}
	// Configuration k is (BER k/2, detector k%2).
	rounds := perRound(o, len(bers)*len(dets), func(k int, seed uint64, rs *sim.RoundScratch) []float64 {
		pop := rs.Population(c.Tags, epc.IDBits, prng.New(seed))
		var im *air.Impairment
		if ber := bers[k/2]; ber > 0 {
			im = &air.Impairment{BER: ber, Rng: prng.New(seed ^ 0x9015e)}
		}
		return []float64{aloha.Exact(pop, dets[k%2], tm, aloha.Options{Impairment: im, Scratch: rs.Aloha()}).FSA(aloha.NewFixed(c.Slots)).TimeMicros}
	})
	for b, ber := range bers {
		tCRC, tQCD := means(rounds[2*b])[0], means(rounds[2*b+1])[0]
		s.Add(ber, tCRC, tQCD, (tCRC-tQCD)/tCRC)
	}
	return s, nil
}

// Capture sweeps the capture-effect probability: captures convert
// collisions into reads for both schemes, shrinking total slots while
// preserving QCD's advantage.
func Capture(o Options) (Renderable, error) {
	o = o.normalize()
	c, _ := epc.CaseByName("I")
	s := report.NewSeries("Capture effect: slots and time vs capture probability (case I, FSA, QCD-8)",
		"capture prob", "mean", "slots", "time (μs)")
	tm := timing.Default
	det := detect.NewQCD(8, epc.IDBits)
	probs := []float64{0, 0.25, 0.5, 0.75, 1.0}
	rounds := perRound(o, len(probs), func(k int, seed uint64, rs *sim.RoundScratch) []float64 {
		pop := rs.Population(c.Tags, epc.IDBits, prng.New(seed))
		var im *air.Impairment
		if p := probs[k]; p > 0 {
			im = &air.Impairment{CaptureProb: p, Rng: prng.New(seed ^ 0xca9)}
		}
		sess := aloha.Exact(pop, det, tm, aloha.Options{Impairment: im, Scratch: rs.Aloha()}).FSA(aloha.NewFixed(c.Slots))
		return []float64{float64(sess.Census.Slots()), sess.TimeMicros}
	})
	for k, p := range probs {
		s.Add(p, means(rounds[k])...)
	}
	return s, nil
}

// Schedule compares sequential reader activation against the
// interference-colored parallel schedule on the Table V floor (the
// Section II reader-collision remedies, made quantitative).
func Schedule(o Options) (Renderable, error) {
	o = o.normalize()
	t := report.NewTable("Reader scheduling on the Table V floor (QCD-8, 3m range)",
		"interference radius", "colors", "sequential", "scheduled makespan", "speedup")
	det := detect.NewQCD(8, epc.IDBits)
	const tags = 2000
	radii := []float64{10, 15, 25, 40}
	// Unit i < len(radii) schedules a fresh floor at radius i; the last
	// two run the sequential baseline every row shares and the
	// unscheduled all-on activation (carrier radius 20m).
	scheduled := make([]deploy.ScheduleResult, len(radii))
	var seq float64
	var un deploy.UnscheduledResult
	o.each(len(radii)+2, func(i int, rs *sim.RoundScratch) {
		f, session := floorWithTags(tags, o.Seed, rs), floorSession(det, rs)
		switch i - len(radii) {
		case 0:
			seq, _ = f.RunSequential(session)
		case 1:
			un = f.RunUnscheduled(20, session)
		default:
			scheduled[i] = f.RunScheduled(radii[i], session)
		}
	})
	for i, radius := range radii {
		res := scheduled[i]
		t.AddRow(fmt.Sprintf("%.0fm", radius),
			fmt.Sprintf("%d", res.Colors),
			fmtMicros(seq),
			fmtMicros(res.MakespanMicros),
			report.F(res.Speedup(), 1))
	}
	t.AddNote("speedup = summed airtime / makespan; wider interference radii force more colors and less parallelism")

	// The failure mode scheduling avoids: all readers keyed up at once.
	t2 := report.NewTable("Unscheduled all-on activation (carrier radius 20m): Reader-Tag collisions",
		"identified", "jammed (covered but drowned)", "makespan")
	t2.AddRow(fmt.Sprintf("%d", un.Identified), fmt.Sprintf("%d", un.Jammed), fmtMicros(un.MakespanMicros))
	t2.AddNote("Section II: without scheduling, a neighbour reader's carrier drowns the tag's backscatter")
	return Multi{t, t2}, nil
}

func floorWithTags(n int, seed uint64, rs *sim.RoundScratch) *deploy.Floor {
	rng := prng.New(seed)
	f := deploy.NewFloor(100)
	f.PlaceReadersGrid(100, 3)
	f.PlaceTags(rs.Population(n, epc.IDBits, rng), rng)
	return f
}

// floorSession is one reader's FSA session under det on the floor, in a
// frame as long as the tags in its range, on rs's working set.
func floorSession(det detect.Detector, rs *sim.RoundScratch) deploy.SessionFn {
	return func(sub tagmodel.Population) float64 {
		return aloha.Exact(sub, det, timing.Default, aloha.Options{Scratch: rs.Aloha()}).FSA(aloha.NewFixed(max(1, len(sub)))).TimeMicros
	}
}

// EDFSAExperiment compares enhanced dynamic FSA (Lee et al., the paper's
// reference [8]) against capped fixed frames under both detectors.
func EDFSAExperiment(o Options) (Renderable, error) {
	o = o.normalize()
	t := report.NewTable("EDFSA (frame cap 256) vs capped fixed FSA, 2000 tags",
		"algorithm", "CRC-CD time", "QCD-8 time", "slots (QCD)", "λ (QCD)")
	for _, alg := range []struct{ id, name string }{{sim.AlgFSA, "fixed-256"}, {sim.AlgEDFSA, "edfsa-256"}} {
		var aggs [2]*sim.Aggregate // CRC-CD, QCD
		for d, det := range []string{sim.DetCRCCD, sim.DetQCD} {
			agg, err := o.aggregate(sim.Config{
				Tags: 2000, IDBits: epc.IDBits, Seed: o.Seed, Rounds: o.Rounds, Workers: o.Workers,
				FrameSize: 256, Algorithm: alg.id, Detector: det,
			})
			if err != nil {
				return nil, err
			}
			aggs[d] = agg
		}
		qcd := aggs[1]
		t.AddRow(alg.name, fmtMicros(aggs[0].TimeMicros.Mean()), fmtMicros(qcd.TimeMicros.Mean()),
			fmt.Sprintf("%d", int64(qcd.Slots.Mean())), report.F(qcd.Throughput.Mean(), 3))
	}
	t.AddNote("grouping keeps per-frame occupancy near the λ=1/e point despite the hardware frame cap")
	return t, nil
}
