package experiment

import (
	"math"
	"strconv"
	"strings"
	"testing"

	"repro/internal/report"
	"repro/internal/sim"
)

func TestRegistryCoversEveryPaperArtifact(t *testing.T) {
	want := []string{
		"lemma1", "lemma2", "table2", "table3", "table4", "setup",
		"fig5", "table7", "table8", "table9", "fig6", "fig7", "fig8",
	}
	have := map[string]bool{}
	for _, r := range Registry() {
		have[r.ID] = true
	}
	for _, id := range want {
		if !have[id] {
			t.Errorf("registry missing paper artifact %q", id)
		}
	}
}

func TestByID(t *testing.T) {
	if _, ok := ByID("table7"); !ok {
		t.Error("ByID(table7) not found")
	}
	if _, ok := ByID("nope"); ok {
		t.Error("ByID found a ghost")
	}
	if len(IDs()) != len(Registry()) {
		t.Error("IDs()/Registry() length mismatch")
	}
}

func TestClosedFormExperimentsRender(t *testing.T) {
	for _, id := range []string{"table2", "table3", "table4", "setup"} {
		r, _ := ByID(id)
		out, err := r.Run(Quick())
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if len(out.Render()) < 50 {
			t.Errorf("%s rendered suspiciously little:\n%s", id, out.Render())
		}
	}
}

func TestTable2ExactValues(t *testing.T) {
	r, _ := ByID("table2")
	out, err := r.Run(Quick())
	if err != nil {
		t.Fatal(err)
	}
	s := out.Render()
	for _, v := range []string{"0.6698", "0.5864", "0.4198"} {
		if !strings.Contains(s, v) {
			t.Errorf("Table II missing %s:\n%s", v, s)
		}
	}
}

func TestTable3ExactValues(t *testing.T) {
	r, _ := ByID("table3")
	out, err := r.Run(Quick())
	if err != nil {
		t.Fatal(err)
	}
	s := out.Render()
	for _, v := range []string{"0.6856", "0.6023", "0.4356"} {
		if !strings.Contains(s, v) {
			t.Errorf("Table III missing %s:\n%s", v, s)
		}
	}
}

func TestTable7QuickShape(t *testing.T) {
	r, _ := ByID("table7")
	out, err := r.Run(Quick())
	if err != nil {
		t.Fatal(err)
	}
	s := out.Render()
	if !strings.Contains(s, "I") || !strings.Contains(s, "II") {
		t.Errorf("Table VII missing cases:\n%s", s)
	}
	// Case II single slots must be 500 (every tag identified once).
	if !strings.Contains(s, "500") {
		t.Errorf("Table VII missing the 500-singles column:\n%s", s)
	}
}

func TestFigure5QuickAccuracy(t *testing.T) {
	r, _ := ByID("fig5")
	out, err := r.Run(Quick())
	if err != nil {
		t.Fatal(err)
	}
	s := out.Render()
	// 16-bit accuracy should print as 100.00%.
	if !strings.Contains(s, "100.00%") {
		t.Errorf("Figure 5 has no ~100%% cell:\n%s", s)
	}
}

func TestFigure8QuickEIBand(t *testing.T) {
	r, _ := ByID("fig8")
	out, err := r.Run(Options{Rounds: 3, MaxCase: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	s := out.Render()
	// Extract all numeric cells that look like EIs and check the band.
	found := 0
	for _, f := range strings.Fields(s) {
		if v, err := strconv.ParseFloat(f, 64); err == nil && v > 0.3 && v < 0.9 {
			found++
		}
	}
	if found < 6 {
		t.Errorf("Figure 8 produced %d EI-like cells, want ≥6 (2 panels × 3 strengths):\n%s", found, s)
	}
}

// TestFigure6ShowsLargeReduction: in cases I–II, QCD-8's mean
// identification delay is more than 40% below CRC-CD's, by more than
// 3σ, where σ is the reduction's standard error propagated from the
// spread of the per-round delay means. The figure shows the same
// reductions.
func TestFigure6ShowsLargeReduction(t *testing.T) {
	o := Options{Rounds: 3, MaxCase: 2, Seed: 1}
	out, err := Figure6(o)
	if err != nil {
		t.Fatal(err)
	}
	rendered := out.Render()
	o = o.normalize()
	for _, c := range o.cases() {
		crc, err := o.run(c, sim.AlgFSA, sim.DetCRCCD, 8)
		if err != nil {
			t.Fatal(err)
		}
		qcd, err := o.run(c, sim.AlgFSA, sim.DetQCD, 8)
		if err != nil {
			t.Fatal(err)
		}
		red := (crc.Delay.Mean() - qcd.Delay.Mean()) / crc.Delay.Mean()
		relErr := func(a *sim.Aggregate) float64 {
			return a.DelayMean.StdDev() / math.Sqrt(float64(a.DelayMean.N())) / a.DelayMean.Mean()
		}
		sigma := (1 - red) * math.Hypot(relErr(crc), relErr(qcd))
		if red-0.40 <= 3*sigma {
			t.Errorf("case %s: reduction %.2f%% ± %.2f%% (1σ) is not above 40%% by 3σ", c.Name, 100*red, 100*sigma)
		}
		if pct := report.Pct(red); !strings.Contains(rendered, pct) {
			t.Errorf("case %s: Figure 6 does not show the %s reduction:\n%s", c.Name, pct, rendered)
		}
		t.Logf("case %s: reduction %.2f%% ± %.2f%% (1σ)", c.Name, 100*red, 100*sigma)
	}
}

func TestAblationsRunQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("ablations take a few seconds")
	}
	for _, id := range []string{"ablation-detector", "ablation-strength", "ablation-policy", "ablation-protocols"} {
		r, ok := ByID(id)
		if !ok {
			t.Fatalf("missing %s", id)
		}
		out, err := r.Run(Options{Rounds: 2, MaxCase: 1, Seed: 1})
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if len(out.Render()) < 50 {
			t.Errorf("%s rendered too little", id)
		}
	}
}

func TestExtensionExperimentsRunQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("extension experiments take a few seconds")
	}
	for _, id := range []string{
		"ablation-estimate", "ablation-energy", "ablation-overhead", "mobility",
		"gen2", "schedule", "edfsa", "workloads", "phy", "privacy",
	} {
		r, ok := ByID(id)
		if !ok {
			t.Fatalf("missing %s", id)
		}
		out, err := r.Run(Options{Rounds: 2, MaxCase: 1, Seed: 1})
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		s := out.Render()
		if len(s) < 50 {
			t.Errorf("%s rendered too little", id)
		}
		if !strings.Contains(s, "note:") {
			t.Errorf("%s missing its methodology note:\n%s", id, s)
		}
	}
	// Series-shaped extension experiments.
	for _, id := range []string{"noise", "capture"} {
		r, ok := ByID(id)
		if !ok {
			t.Fatalf("missing %s", id)
		}
		out, err := r.Run(Options{Rounds: 2, MaxCase: 1, Seed: 1})
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if !strings.Contains(out.Render(), "#") {
			t.Errorf("%s did not render a series header", id)
		}
	}
}

func TestFloorRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("floor experiment takes a few seconds")
	}
	r, _ := ByID("floor")
	out, err := r.Run(Options{Rounds: 1, MaxCase: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.Render(), "100 readers") {
		t.Errorf("floor output:\n%s", out.Render())
	}
}

func TestLemmasQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("lemma sweeps take a few seconds")
	}
	for _, id := range []string{"lemma1", "lemma2"} {
		r, _ := ByID(id)
		out, err := r.Run(Options{Rounds: 2, MaxCase: 2, Seed: 1})
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if len(out.Render()) < 50 {
			t.Errorf("%s rendered too little", id)
		}
	}
}

func TestCSVOf(t *testing.T) {
	r, _ := ByID("table2")
	out, err := r.Run(Quick())
	if err != nil {
		t.Fatal(err)
	}
	csv := CSVOf(out)
	if !strings.Contains(csv, "0.5864") || !strings.Contains(csv, "strength") {
		t.Errorf("CSVOf(table2):\n%s", csv)
	}
	// Multi results concatenate their blocks.
	setup, _ := ByID("setup")
	out, err = setup.Run(Quick())
	if err != nil {
		t.Fatal(err)
	}
	csv = CSVOf(out)
	if !strings.Contains(csv, "parameter") || !strings.Contains(csv, "case") {
		t.Errorf("CSVOf(setup) missing blocks:\n%s", csv)
	}
}

func TestOptionsNormalize(t *testing.T) {
	o := Options{}.normalize()
	if o.Rounds != 100 || o.MaxCase != 4 || o.Seed != 1 {
		t.Errorf("defaults = %+v", o)
	}
	o = Options{Rounds: 7, MaxCase: 9}.normalize()
	if o.Rounds != 7 || o.MaxCase != 4 {
		t.Errorf("clamping = %+v", o)
	}
	if len(Quick().cases()) != 2 {
		t.Error("Quick should use two cases")
	}
}
