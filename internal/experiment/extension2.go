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
	"repro/internal/metrics"
	"repro/internal/prng"
	"repro/internal/report"
	"repro/internal/stats"
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
	var baseline float64
	for i, cfg := range configs {
		var tme, wasted, queries, cmdBits stats.Accumulator
		seeds := prng.New(o.Seed)
		for r := 0; r < o.Rounds; r++ {
			seed := seeds.Uint64()
			pop := tagmodel.NewPopulation(c.Tags, epc.IDBits, prng.New(seed))
			res := gen2.Run(pop, cfg, timing.Default)
			tme.Add(res.Session.TimeMicros)
			wasted.Add(float64(res.WastedACKs))
			queries.Add(float64(res.Queries))
			cmdBits.Add(float64(res.CommandBits))
		}
		if i == 0 {
			baseline = tme.Mean()
		}
		ei := (baseline - tme.Mean()) / baseline
		t.AddRow(cfg.Scheme.String(),
			fmtMicros(tme.Mean()),
			report.F(wasted.Mean(), 0),
			report.F(queries.Mean(), 1),
			report.F(cmdBits.Mean(), 0),
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
	for _, ber := range []float64{0, 1e-4, 1e-3, 3e-3, 1e-2} {
		times := map[string]float64{}
		for _, detName := range []string{"crccd", "qcd"} {
			var det detect.Detector
			if detName == "qcd" {
				det = detect.NewQCD(8, epc.IDBits)
			} else {
				det = detect.NewCRCCD(crc.CRC32IEEE, epc.IDBits)
			}
			var acc stats.Accumulator
			seeds := prng.New(o.Seed)
			for r := 0; r < o.Rounds; r++ {
				seed := seeds.Uint64()
				pop := tagmodel.NewPopulation(c.Tags, epc.IDBits, prng.New(seed))
				var im *air.Impairment
				if ber > 0 {
					im = &air.Impairment{BER: ber, Rng: prng.New(seed ^ 0x9015e)}
				}
				sess := aloha.Exact(pop, det, tm, aloha.Options{Impairment: im}).FSA(aloha.NewFixed(c.Slots))
				acc.Add(sess.TimeMicros)
			}
			times[detName] = acc.Mean()
		}
		ei := (times["crccd"] - times["qcd"]) / times["crccd"]
		s.Add(ber, times["crccd"], times["qcd"], ei)
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
	for _, p := range []float64{0, 0.25, 0.5, 0.75, 1.0} {
		var slots, tme stats.Accumulator
		seeds := prng.New(o.Seed)
		for r := 0; r < o.Rounds; r++ {
			seed := seeds.Uint64()
			pop := tagmodel.NewPopulation(c.Tags, epc.IDBits, prng.New(seed))
			var im *air.Impairment
			if p > 0 {
				im = &air.Impairment{CaptureProb: p, Rng: prng.New(seed ^ 0xca9)}
			}
			sess := aloha.Exact(pop, det, tm, aloha.Options{Impairment: im}).FSA(aloha.NewFixed(c.Slots))
			slots.Add(float64(sess.Census.Slots()))
			tme.Add(sess.TimeMicros)
		}
		s.Add(p, slots.Mean(), tme.Mean())
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
	tm := timing.Default
	session := func(sub tagmodel.Population) float64 {
		f := len(sub)
		if f < 1 {
			f = 1
		}
		return aloha.Exact(sub, det, tm, aloha.Options{}).FSA(aloha.NewFixed(f)).TimeMicros
	}
	const tags = 2000
	for _, radius := range []float64{10, 15, 25, 40} {
		f1, _ := floorWithTags(tags, o.Seed)
		seq, _ := f1.RunSequential(session)
		f2, _ := floorWithTags(tags, o.Seed)
		res := f2.RunScheduled(radius, session)
		t.AddRow(fmt.Sprintf("%.0fm", radius),
			fmt.Sprintf("%d", res.Colors),
			fmtMicros(seq),
			fmtMicros(res.MakespanMicros),
			report.F(res.Speedup(), 1))
	}
	t.AddNote("speedup = summed airtime / makespan; wider interference radii force more colors and less parallelism")

	// The failure mode scheduling avoids: all readers keyed up at once.
	f3, _ := floorWithTags(tags, o.Seed)
	un := f3.RunUnscheduled(20, session)
	t2 := report.NewTable("Unscheduled all-on activation (carrier radius 20m): Reader-Tag collisions",
		"identified", "jammed (covered but drowned)", "makespan")
	t2.AddRow(fmt.Sprintf("%d", un.Identified), fmt.Sprintf("%d", un.Jammed), fmtMicros(un.MakespanMicros))
	t2.AddNote("Section II: without scheduling, a neighbour reader's carrier drowns the tag's backscatter")
	return Multi{t, t2}, nil
}

func floorWithTags(n int, seed uint64) (*deploy.Floor, tagmodel.Population) {
	rng := prng.New(seed)
	f := deploy.NewFloor(100)
	f.PlaceReadersGrid(100, 3)
	pop := tagmodel.NewPopulation(n, epc.IDBits, rng)
	f.PlaceTags(pop, rng)
	return f, pop
}

// EDFSAExperiment compares enhanced dynamic FSA (Lee et al., the paper's
// reference [8]) against capped fixed frames under both detectors.
func EDFSAExperiment(o Options) (Renderable, error) {
	o = o.normalize()
	t := report.NewTable("EDFSA (frame cap 256) vs capped fixed FSA, 2000 tags",
		"algorithm", "CRC-CD time", "QCD-8 time", "slots (QCD)", "λ (QCD)")
	tm := timing.Default
	run := func(det detect.Detector, edfsa bool, seed uint64) (float64, int64, float64) {
		var tme, slots, thr stats.Accumulator
		seeds := prng.New(seed)
		for r := 0; r < o.Rounds; r++ {
			pop := tagmodel.NewPopulation(2000, epc.IDBits, prng.New(seeds.Uint64()))
			var sess *metrics.Session
			if edfsa {
				sess = aloha.Exact(pop, det, tm, aloha.Options{}).EDFSA(aloha.EDFSAConfig{MaxFrame: 256})
			} else {
				sess = aloha.Exact(pop, det, tm, aloha.Options{}).FSA(aloha.NewFixed(256))
			}
			tme.Add(sess.TimeMicros)
			slots.Add(float64(sess.Census.Slots()))
			thr.Add(sess.Census.Throughput())
		}
		return tme.Mean(), int64(slots.Mean()), thr.Mean()
	}
	for _, alg := range []struct {
		name  string
		edfsa bool
	}{{"fixed-256", false}, {"edfsa-256", true}} {
		crcT, _, _ := run(detect.NewCRCCD(crc.CRC32IEEE, epc.IDBits), alg.edfsa, o.Seed)
		qcdT, qcdSlots, qcdThr := run(detect.NewQCD(8, epc.IDBits), alg.edfsa, o.Seed)
		t.AddRow(alg.name, fmtMicros(crcT), fmtMicros(qcdT),
			fmt.Sprintf("%d", qcdSlots), report.F(qcdThr, 3))
	}
	t.AddNote("grouping keeps per-frame occupancy near the λ=1/e point despite the hardware frame cap")
	return t, nil
}
