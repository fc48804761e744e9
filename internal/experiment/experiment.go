// Package experiment contains one driver per table and figure of the
// paper's evaluation (Section VI) plus the Section III/V analytical
// results and the ablations DESIGN.md calls out. Every driver returns a
// renderable result carrying the regenerated numbers alongside the
// paper's reported values, so EXPERIMENTS.md can be produced mechanically.
package experiment

import (
	"context"
	"fmt"
	"sort"
	"sync"

	"repro/internal/epc"
	"repro/internal/rescache"
	"repro/internal/sim"
	"repro/internal/stats"
)

// Renderable is anything the drivers can return (report.Table,
// report.Series, or a composite).
type Renderable interface {
	Render() string
}

// Multi concatenates several renderables (e.g. Figure 7's two panels).
type Multi []Renderable

// Render implements Renderable.
func (m Multi) Render() string {
	out := ""
	for i, r := range m {
		if i > 0 {
			out += "\n"
		}
		out += r.Render()
	}
	return out
}

// csver is satisfied by report.Table and report.Series.
type csver interface{ CSV() string }

// CSVOf extracts comma-separated data from a result: each table or series
// becomes one CSV block (blocks separated by a blank line). It returns ""
// when the result carries no tabular data.
func CSVOf(r Renderable) string {
	switch v := r.(type) {
	case csver:
		return v.CSV()
	case Multi:
		out := ""
		for _, child := range v {
			if c := CSVOf(child); c != "" {
				if out != "" {
					out += "\n"
				}
				out += c
			}
		}
		return out
	default:
		return ""
	}
}

// Options scales an experiment run.
type Options struct {
	// Rounds is the Monte-Carlo repetition count; 0 means the paper's 100.
	Rounds int
	// MaxCase limits the Table VI cases used (1..4); 0 means all four.
	// Case IV has 50000 tags — full-fidelity runs take minutes.
	MaxCase int
	// Seed is the master seed (default 1).
	Seed uint64
	// Workers bounds each artifact's concurrent runs: the rounds of a
	// simulated configuration, or a driver's own independent runs
	// (default GOMAXPROCS). Results do not depend on it.
	Workers int

	// memo is the reproduction run's aggregates and scratch pool, set by
	// the Registry runners or, for a driver called alone, by normalize.
	memo *memo
}

func (o Options) normalize() Options {
	if o.Rounds <= 0 {
		o.Rounds = epc.PaperSetup().Rounds
	}
	if o.MaxCase <= 0 || o.MaxCase > 4 {
		o.MaxCase = 4
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.memo == nil {
		o.memo = newMemo()
	}
	return o
}

// Quick returns options sized for tests and smoke benches: cases I–II,
// a handful of rounds.
func Quick() Options { return Options{Rounds: 5, MaxCase: 2, Seed: 1} }

func (o Options) cases() []epc.Case {
	return epc.PaperCases()[:o.MaxCase]
}

// strengths are the paper's evaluated QCD strengths.
func strengths() []int { return epc.PaperSetup().StrengthValues }

// baseConfig assembles a sim.Config for one (case, algorithm, detector).
func (o Options) baseConfig(c epc.Case, alg, det string, strength int) sim.Config {
	return sim.Config{
		Tags:         c.Tags,
		IDBits:       epc.IDBits,
		Seed:         o.Seed,
		Rounds:       o.Rounds,
		Algorithm:    alg,
		FrameSize:    c.Slots,
		Detector:     det,
		Strength:     strength,
		Workers:      o.Workers,
		ConfirmEmpty: alg == sim.AlgFSA,
	}
}

// run executes one aggregate.
func (o Options) run(c epc.Case, alg, det string, strength int) (*sim.Aggregate, error) {
	return o.aggregate(o.baseConfig(c, alg, det, strength))
}

// memo holds what one reproduction run shares between its artifacts:
// the aggregates, keyed by rescache.ConfigKey, so a configuration
// several artifacts need (the Table VI cases at strength 8 serve most of
// Section VI) is simulated once, and the round scratch pool every
// simulated configuration and every unit of each draws its working sets
// from. Aggregate and Config hold no slices or maps, so the stored
// values are independent of every copy handed out. The pool lives as
// long as the run: it keeps one working set per worker (more only while
// artifacts run at once), each sized by the largest configuration it
// has served, and it is dropped with the registry.
type memo struct {
	mu     sync.Mutex
	aggs   map[string]sim.Aggregate
	misses int // aggregates computed, one per distinct key when runs are sequential
	pool   sim.ScratchPool
}

func newMemo() *memo { return &memo{aggs: map[string]sim.Aggregate{}} }

// aggregate is every experiment's one way to a Monte-Carlo aggregate. It
// validates cfg, serves the run's memoised aggregate for cfg's canonical
// key and simulates only on a miss, on working sets from the run's
// scratch pool; the aggregate is sim.Run's, bit for bit. The caller owns
// the returned copy. Concurrent misses on one key both compute, and
// store the same bit-identical aggregate.
func (o Options) aggregate(cfg sim.Config) (*sim.Aggregate, error) {
	m := o.memo
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	key, err := rescache.ConfigKey(cfg)
	if err != nil {
		return nil, err
	}
	m.mu.Lock()
	agg, ok := m.aggs[key]
	m.mu.Unlock()
	if ok {
		return &agg, nil
	}
	fresh, err := sim.RunContextPool(context.Background(), cfg, &m.pool)
	if err != nil {
		return nil, err
	}
	m.mu.Lock()
	m.aggs[key] = *fresh
	m.misses++
	m.mu.Unlock()
	return fresh, nil
}

// each runs fn(i, rs) for every i < n, a driver's independent runs, as
// sim.Fan's units over Workers; rs is the unit's worker's scratch from
// the run's pool. A unit writes only its own index's slot and the caller
// folds the slots in index order, so results are identical at any worker
// count. A unit must not call aggregate: the simulation would fan its
// rounds out inside this fan-out.
func (o Options) each(n int, fn func(i int, rs *sim.RoundScratch)) {
	sim.Fan(o.Workers, n, &o.memo.pool, sim.UnitFunc(fn))
}

// perRound is the Monte-Carlo loop of the drivers that run their own
// rounds: it runs fn(k, seed, rs) for every configuration k < n and
// every round as one unit of each, and returns the results by
// configuration, each in round order. Round r of every configuration
// starts from sim.RoundSeeds' r-th seed.
func perRound[T any](o Options, n int, fn func(k int, seed uint64, rs *sim.RoundScratch) T) [][]T {
	seeds := sim.RoundSeeds(o.Seed, o.Rounds)
	flat := make([]T, n*len(seeds))
	o.each(len(flat), func(i int, rs *sim.RoundScratch) {
		flat[i] = fn(i/len(seeds), seeds[i%len(seeds)], rs)
	})
	byConfig := make([][]T, n)
	for k := range byConfig {
		byConfig[k] = flat[k*len(seeds) : (k+1)*len(seeds)]
	}
	return byConfig
}

// means folds per-round metric vectors into each metric's mean, adding
// the rounds in round order.
func means(rounds [][]float64) []float64 {
	accs := make([]stats.Accumulator, len(rounds[0]))
	for _, r := range rounds {
		for i, x := range r {
			accs[i].Add(x)
		}
	}
	out := make([]float64, len(accs))
	for i := range accs {
		out[i] = accs[i].Mean()
	}
	return out
}

// Runner is a named experiment.
type Runner struct {
	ID    string // e.g. "table7", "fig5", "lemma1"
	Title string
	Run   func(Options) (Renderable, error)

	memo *memo // the reproduction run's aggregates Run reads and fills
}

// Registry lists every experiment in paper order. One call is one
// reproduction run: its runners share one memo, so each distinct
// configuration is simulated once however many artifacts read it, and
// nothing is shared with the runners of another call.
func Registry() []Runner { return registry(newMemo()) }

// registry binds every experiment's runner to m.
func registry(m *memo) []Runner {
	rs := []Runner{
		{ID: "lemma1", Title: "Lemma 1: FSA throughput peaks at 1/e when F = n", Run: Lemma1},
		{ID: "lemma2", Title: "Lemma 2: BT needs 2.885n slots (λ ≈ 0.35)", Run: Lemma2},
		{ID: "table2", Title: "Table II: minimum EI of QCD on FSA", Run: Table2},
		{ID: "table3", Title: "Table III: average EI of QCD on BT", Run: Table3},
		{ID: "table4", Title: "Table IV: CRC-CD vs QCD cost comparison", Run: Table4},
		{ID: "setup", Title: "Tables V & VI: simulation setup and cases", Run: Setup},
		{ID: "fig5", Title: "Figure 5: QCD detection accuracy vs strength", Run: Figure5},
		{ID: "table7", Title: "Table VII: FSA slot census per case", Run: Table7},
		{ID: "table8", Title: "Table VIII: BT slot census per case", Run: Table8},
		{ID: "table9", Title: "Table IX: utilisation rate vs strength", Run: Table9},
		{ID: "fig6", Title: "Figure 6: identification delay, CRC-CD vs QCD", Run: Figure6},
		{ID: "fig7", Title: "Figure 7: transmission time, CRC-CD vs QCD (FSA & BT)", Run: Figure7},
		{ID: "fig8", Title: "Figure 8: measured EI per strength (FSA & BT)", Run: Figure8},
		{ID: "ablation-detector", Title: "Ablation: oracle vs QCD vs CRC-CD", Run: AblationDetector},
		{ID: "ablation-strength", Title: "Ablation: strength sweep 1..16", Run: AblationStrength},
		{ID: "ablation-policy", Title: "Ablation: FSA frame policies under QCD and CRC-CD", Run: AblationFramePolicy},
		{ID: "ablation-protocols", Title: "Ablation: QCD across FSA/BT/Q-adaptive/QT", Run: AblationProtocols},
		{ID: "ablation-estimate", Title: "Ablation: cardinality-estimating frame policies", Run: AblationEstimate},
		{ID: "ablation-energy", Title: "Ablation: per-tag transmitted bits (tag energy)", Run: AblationEnergy},
		{ID: "ablation-overhead", Title: "Ablation: EI with Gen-2 command overhead charged", Run: AblationOverhead},
		{ID: "mobility", Title: "Mobility: miss rate of a flowing population (Sec. VI-D)", Run: Mobility},
		{ID: "floor", Title: "Multi-reader floor (Table V environment)", Run: Floor},
		{ID: "gen2", Title: "Gen-2 command-level inventory: RN16 vs CRC-CD vs QCD", Run: Gen2},
		{ID: "noise", Title: "Channel noise: identification time vs BER", Run: Noise},
		{ID: "capture", Title: "Capture effect: slots/time vs capture probability", Run: Capture},
		{ID: "schedule", Title: "Reader-interference scheduling on the Table V floor", Run: Schedule},
		{ID: "edfsa", Title: "EDFSA grouping vs capped fixed frames", Run: EDFSAExperiment},
		{ID: "workloads", Title: "ID-structure sensitivity: QT vs FSA on EPC-shaped populations", Run: Workloads},
		{ID: "phy", Title: "EI under real Gen-2 PHY link budgets (PIE/FM0/Miller)", Run: Phy},
		{ID: "privacy", Title: "Backward-channel protection: pseudo-ID mixing & same-bit leakage", Run: Privacy},
	}
	for i := range rs {
		run := rs[i].Run
		rs[i].memo = m
		rs[i].Run = func(o Options) (Renderable, error) {
			o.memo = m
			return run(o)
		}
	}
	return rs
}

// ByID returns the named experiment, bound to a memo of its own.
func ByID(id string) (Runner, bool) {
	for _, r := range Registry() {
		if r.ID == id {
			return r, true
		}
	}
	return Runner{}, false
}

// IDs returns all experiment ids, sorted.
func IDs() []string {
	var out []string
	for _, r := range Registry() {
		out = append(out, r.ID)
	}
	sort.Strings(out)
	return out
}

func fmtMicros(v float64) string {
	switch {
	case v >= 1e6:
		return fmt.Sprintf("%.3gs", v/1e6)
	case v >= 1e3:
		return fmt.Sprintf("%.4gms", v/1e3)
	default:
		return fmt.Sprintf("%.4gμs", v)
	}
}
