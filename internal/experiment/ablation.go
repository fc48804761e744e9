package experiment

import (
	"fmt"

	"repro/internal/crc"
	"repro/internal/detect"
	"repro/internal/epc"
	"repro/internal/report"
	"repro/internal/sim"
)

// AblationDetector isolates where QCD's gain comes from by inserting the
// oracle detector between CRC-CD and QCD: the oracle has perfect detection
// with a 1-bit contention burst, lower-bounding any scheme's time.
func AblationDetector(o Options) (Renderable, error) {
	o = o.normalize()
	t := report.NewTable("Ablation: detector comparison on FSA (time per session)",
		"case", "CRC-CD", "QCD-8", "oracle", "QCD gap to oracle")
	for _, c := range o.cases() {
		var times [3]float64
		for i, det := range []string{sim.DetCRCCD, sim.DetQCD, sim.DetOracle} {
			agg, err := o.run(c, sim.AlgFSA, det, 8)
			if err != nil {
				return nil, err
			}
			times[i] = agg.TimeMicros.Mean()
		}
		gap := (times[1] - times[2]) / times[2]
		t.AddRow(c.Name,
			fmtMicros(times[0]), fmtMicros(times[1]), fmtMicros(times[2]),
			report.Pct(gap))
	}
	t.AddNote("the oracle pays 1 contention bit per slot; QCD's residual gap is its 2l-bit preamble")
	return t, nil
}

// AblationStrength sweeps QCD strength l = 1..16, exposing the
// accuracy/overhead tradeoff of Section IV-B beyond the paper's three
// points.
func AblationStrength(o Options) (Renderable, error) {
	o = o.normalize()
	c, _ := epc.CaseByName("II")
	s := report.NewSeries("Ablation: QCD strength sweep (case II, FSA)",
		"strength (bits)", "metric", "accuracy", "UR", "EI vs CRC-CD")
	crcAgg, err := o.run(c, sim.AlgFSA, sim.DetCRCCD, 8)
	if err != nil {
		return nil, err
	}
	for _, l := range []int{1, 2, 3, 4, 6, 8, 10, 12, 16} {
		agg, err := o.run(c, sim.AlgFSA, sim.DetQCD, l)
		if err != nil {
			return nil, err
		}
		ei := (crcAgg.TimeMicros.Mean() - agg.TimeMicros.Mean()) / crcAgg.TimeMicros.Mean()
		s.Add(float64(l), agg.Accuracy.Mean(), agg.UR.Mean(), ei)
	}
	return s, nil
}

// AblationFramePolicy shows QCD's gain is orthogonal to frame adaptation:
// it speeds up fixed, Schoute-dynamic and Gen2 Q-adaptive FSA alike.
func AblationFramePolicy(o Options) (Renderable, error) {
	o = o.normalize()
	c, _ := epc.CaseByName("II")
	t := report.NewTable("Ablation: frame policies under both detectors (case II)",
		"policy", "CRC-CD time", "QCD-8 time", "EI")
	type pol struct {
		name   string
		policy string
		alg    string
	}
	pols := []pol{
		{"fixed-300", sim.PolicyFixed, sim.AlgFSA},
		{"schoute", sim.PolicySchoute, sim.AlgFSA},
		{"lowerbound", sim.PolicyLowerBound, sim.AlgFSA},
		{"optimal", sim.PolicyOptimal, sim.AlgFSA},
		{"gen2-Q", "", sim.AlgQAdaptive},
	}
	for _, p := range pols {
		run := func(det string) (float64, error) {
			cfg := o.baseConfig(c, p.alg, det, 8)
			cfg.FramePolicy = p.policy
			agg, err := o.aggregate(cfg)
			if err != nil {
				return 0, err
			}
			return agg.TimeMicros.Mean(), nil
		}
		tCRC, err := run(sim.DetCRCCD)
		if err != nil {
			return nil, err
		}
		tQCD, err := run(sim.DetQCD)
		if err != nil {
			return nil, err
		}
		t.AddRow(p.name, fmtMicros(tCRC), fmtMicros(tQCD), report.Pct((tCRC-tQCD)/tCRC))
	}
	t.AddNote("the paper's 'seamless adoption' claim: EI stays ≈0.5–0.7 under every frame policy")
	return t, nil
}

// AblationProtocols plugs QCD into every implemented anti-collision
// protocol and reports the speedup over CRC-CD.
func AblationProtocols(o Options) (Renderable, error) {
	o = o.normalize()
	c, _ := epc.CaseByName("I")
	t := report.NewTable("Ablation: QCD across protocols (case I)",
		"protocol", "CRC-CD time", "QCD-8 time", "EI", "slots (QCD)")
	for _, alg := range []string{sim.AlgFSA, sim.AlgBT, sim.AlgQAdaptive, sim.AlgQT} {
		crcAgg, err := o.run(c, alg, sim.DetCRCCD, 8)
		if err != nil {
			return nil, err
		}
		qcdAgg, err := o.run(c, alg, sim.DetQCD, 8)
		if err != nil {
			return nil, err
		}
		ei := (crcAgg.TimeMicros.Mean() - qcdAgg.TimeMicros.Mean()) / crcAgg.TimeMicros.Mean()
		t.AddRow(alg, fmtMicros(crcAgg.TimeMicros.Mean()), fmtMicros(qcdAgg.TimeMicros.Mean()),
			report.Pct(ei), report.I(qcdAgg.Slots.Mean()))
	}
	return t, nil
}

// Floor runs the full Table V environment: 100 readers on a 100 m grid,
// tags scattered uniformly, sequential reader activation, per-reader FSA
// sessions under CRC-CD and QCD.
func Floor(o Options) (Renderable, error) {
	o = o.normalize()
	t := report.NewTable("Multi-reader floor (Table V): 100 readers, 100m×100m, 3m range",
		"tags on floor", "covered", "identified", "CRC-CD time", "QCD-8 time", "EI")

	sizes := []int{1000, 5000}
	dets := []detect.Detector{detect.NewCRCCD(crc.CRC32IEEE, epc.IDBits), detect.NewQCD(8, epc.IDBits)}
	// Run i is (floor size i/2, detector i%2).
	type run struct {
		micros              float64
		covered, identified int
	}
	runs := make([]run, len(sizes)*len(dets))
	o.each(len(runs), func(i int, rs *sim.RoundScratch) {
		n, det := sizes[i/2], dets[i%2]
		floor := floorWithTags(n, o.Seed, rs)
		micros, ident := floor.RunSequential(floorSession(det, rs))
		runs[i] = run{micros, int(floor.Coverage() * float64(n)), ident}
	})
	for i, n := range sizes {
		crcRun, qcdRun := runs[2*i], runs[2*i+1]
		ei := (crcRun.micros - qcdRun.micros) / crcRun.micros
		t.AddRow(fmt.Sprintf("%d", n), fmt.Sprintf("%d", qcdRun.covered),
			fmt.Sprintf("%d", qcdRun.identified), fmtMicros(crcRun.micros), fmtMicros(qcdRun.micros), report.Pct(ei))
	}
	t.AddNote("a 10m reader grid with 3m range covers ~28%% of the floor; uncovered tags are unreachable by design")
	return t, nil
}
