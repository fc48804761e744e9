// Command ksequiv validates the statistical correctness of the
// simulator's stat mode: for each of the paper's Table-VI workloads
// (Cases I–IV) it runs the same configuration through the exact and
// stat engines and Kolmogorov–Smirnov-tests the per-round distributions
// of total slots, identification time and misidentification rate, plus
// a 3σ shadow-oracle audit of stat mode's false-single coins against
// the analytic 2^-(l·(m-1)) model. Seeds are fixed, so the verdict is
// deterministic; CI runs it as a blocking step.
//
// Usage:
//
//	ksequiv            # Cases I–II (seconds)
//	ksequiv -full      # Cases I–IV (tens of seconds; exact Case IV dominates)
//	ksequiv -alpha 0.001 -rounds 200
package main

import (
	"context"
	"flag"
	"fmt"
	"math"
	"os"

	"repro/internal/obs"
	"repro/internal/obs/audit"
	"repro/internal/sim"
)

type workload struct {
	name string
	cfg  sim.Config
}

func main() {
	full := flag.Bool("full", false, "include Cases III and IV (5000 and 50000 tags)")
	alpha := flag.Float64("alpha", 0.01, "KS significance level")
	rounds := flag.Int("rounds", 120, "rounds per mode for Cases I-II (III-IV run fewer)")
	flag.Parse()

	workloads := []workload{
		{"caseI/fsa-qcd", sim.Config{Tags: 50, Seed: 42, Algorithm: sim.AlgFSA,
			FrameSize: 30, Detector: sim.DetQCD, Strength: 8}},
		{"caseII/fsa-qcd", sim.Config{Tags: 500, Seed: 42, Algorithm: sim.AlgFSA,
			FrameSize: 300, Detector: sim.DetQCD, Strength: 8}},
		{"caseI/fsa-crccd", sim.Config{Tags: 50, Seed: 42, Algorithm: sim.AlgFSA,
			FrameSize: 30, Detector: sim.DetCRCCD}},
		{"caseII/edfsa-qcd", sim.Config{Tags: 500, Seed: 42, Algorithm: sim.AlgEDFSA,
			FrameSize: 256, Detector: sim.DetQCD, Strength: 8}},
		{"caseII/qadaptive-qcd", sim.Config{Tags: 500, Seed: 42, Algorithm: sim.AlgQAdaptive,
			Detector: sim.DetQCD, Strength: 8}},
	}
	if *full {
		workloads = append(workloads,
			workload{"caseIII/fsa-qcd", sim.Config{Tags: 5000, Seed: 42, Algorithm: sim.AlgFSA,
				FrameSize: 3000, Detector: sim.DetQCD, Strength: 8}},
			workload{"caseIV/fsa-qcd", sim.Config{Tags: 50000, Seed: 42, Algorithm: sim.AlgFSA,
				FrameSize: 30000, Detector: sim.DetQCD, Strength: 8}},
		)
	}

	failed := false
	for _, w := range workloads {
		r := *rounds
		if w.cfg.Tags >= 5000 {
			r = 40 // exact mode dominates the runtime; KS power stays adequate
		}
		rep, err := sim.StatEquivalence(w.cfg, r, *alpha)
		if err != nil {
			fmt.Fprintf(os.Stderr, "ksequiv: %s: %v\n", w.name, err)
			os.Exit(1)
		}
		status := "PASS"
		if !rep.Pass() {
			status = "FAIL"
			failed = true
		}
		fmt.Printf("%-24s rounds=%d alpha=%g %s\n", w.name, r, *alpha, status)
		for _, m := range rep.Metrics {
			fmt.Printf("    %-10s D=%.4f crit=%.4f exact=%.1f stat=%.1f\n",
				m.Name, m.D, m.Critical, m.ExactMean, m.StatMean)
		}
	}

	if !auditThreeSigma() {
		failed = true
	}
	if failed {
		fmt.Println("ksequiv: FAIL")
		os.Exit(1)
	}
	fmt.Println("ksequiv: PASS")
}

// auditThreeSigma shadow-audits a stat-mode QCD run: the realised
// false-single count must sit within 3σ of the analytic expectation
// Σ 2^-(l·(m-1)) the audit layer accumulates from the Observe feed.
func auditThreeSigma() bool {
	a := audit.New(obs.NewRegistry(), audit.Options{ExemplarCap: 16})
	c := sim.Config{
		Tags: 200, Seed: 42, Rounds: 80,
		Algorithm: sim.AlgFSA, FrameSize: 64,
		Detector: sim.DetQCD, Strength: 4,
		Mode: sim.ModeStat,
	}
	if _, err := sim.RunContext(audit.WithAuditor(context.Background(), a), c); err != nil {
		fmt.Fprintf(os.Stderr, "ksequiv: audit run: %v\n", err)
		return false
	}
	rep := a.Report()
	if len(rep.Detectors) != 1 {
		fmt.Fprintf(os.Stderr, "ksequiv: audit saw %d detectors, want 1\n", len(rep.Detectors))
		return false
	}
	d := rep.Detectors[0]
	diff := math.Abs(float64(d.FalseSingle) - d.ExpectedFalseSingles)
	ok := d.TrueCollided > 0 && d.FalseSingle > 0 && diff <= 3*d.ExpectedStdDev
	status := "PASS"
	if !ok {
		status = "FAIL"
	}
	fmt.Printf("%-24s false_singles=%d expected=%.1f±%.1f %s\n",
		"audit/qcd-4-3sigma", d.FalseSingle, d.ExpectedFalseSingles, d.ExpectedStdDev, status)
	return ok
}
