package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"repro/internal/experiment"
	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/sweep"
)

// A workload is one traffic mix against one system under test.
type workload interface {
	name() string
	// setup builds a fresh system under test and warms it; the runner
	// calls it several times (closing the previous one) and times each.
	setup(ctx context.Context) error
	// clients is the closed loop's width: how many ops are in flight.
	clients() int
	// op runs operation i under the op span sp.
	op(ctx context.Context, sp spanRef, i int) error
	// check verifies outputs after the window, returning how many checks
	// it made and the failures.
	check(ctx context.Context, tr *tracer) (int, []string)
	outputs() *outputs
	close()
}

// workloads maps each workload name to its constructor.
var workloads = map[string]func(seed uint64, sc scale) workload{
	"paper":      newPaper,
	"svc-cold":   newSvcCold,
	"svc-hot":    newSvcHot,
	"sweep-stat": newSweepStat,
	"warehouse":  newWarehouse,
}

func workloadNames() []string {
	var out []string
	for n := range workloads {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// scale sizes every workload. fullScale is the benchmark; toyScale is the
// smoke test's.
type scale struct {
	window    time.Duration
	setups    int
	paper     experiment.Options // one pass
	paperWarm experiment.Options // the setup pass
	// memOps is, per workload, the op whose end reads peak_rss_mb. rfidd
	// keeps every finished experiment's run trace and every sweep's
	// cells up to its record caps, so a reading at the window's end would
	// grow with throughput. Each count is about a third of what a window
	// completes, so a system up to three times slower still reaches it;
	// one that does not is read at the window's end.
	memOps    map[string]int
	coldTags  []int
	hotRounds int
	// A stat sweep is statCases × statAlgs × {qcd, crccd} × statStrengths
	// at statRounds rounds per cell.
	statCases       []sweep.Case
	statAlgs        []string
	statStrengths   []int
	statRounds      int
	warehouseMicros float64 // simulated span of one warehouse op
	warmMicros      float64 // simulated span of the warehouse setup run
}

// paperCases are Table VI's cases I–IV as linked (tags, frame) values.
var paperCases = []sweep.Case{
	{Name: "I", Tags: 50, Frame: 30},
	{Name: "II", Tags: 500, Frame: 300},
	{Name: "III", Tags: 5000, Frame: 3000},
	{Name: "IV", Tags: 50000, Frame: 30000},
}

func fullScale(window time.Duration) scale {
	return scale{
		window:          window,
		setups:          11,
		paper:           experiment.Options{Rounds: 2, MaxCase: 4, Workers: procs},
		paperWarm:       experiment.Options{Rounds: 1, MaxCase: 1, Workers: procs},
		memOps:          map[string]int{"paper": 1, "svc-cold": 450, "svc-hot": 40000, "sweep-stat": 2, "warehouse": 3},
		coldTags:        []int{100, 300, 1000},
		hotRounds:       20,
		statCases:       paperCases,
		statAlgs:        []string{sim.AlgFSA, sim.AlgEDFSA, sim.AlgQAdaptive},
		statStrengths:   []int{4, 8, 16},
		statRounds:      25,
		warehouseMicros: 10e6,
		warmMicros:      1e6,
	}
}

func toyScale() scale {
	return scale{
		window:          300 * time.Millisecond,
		setups:          1,
		paper:           experiment.Options{Rounds: 1, MaxCase: 1, Workers: procs},
		paperWarm:       experiment.Options{Rounds: 1, MaxCase: 1, Workers: procs},
		memOps:          map[string]int{"paper": 1, "svc-cold": 1, "svc-hot": 1, "sweep-stat": 1, "warehouse": 1},
		coldTags:        []int{20, 50},
		hotRounds:       1,
		statCases:       paperCases[:1],
		statAlgs:        []string{sim.AlgFSA, sim.AlgQAdaptive},
		statStrengths:   []int{8},
		statRounds:      5,
		warehouseMicros: 0.2e6,
		warmMicros:      0.05e6,
	}
}

// Seed streams: each kind of generated input draws from its own.
const (
	streamColdOp = iota + 1
	streamColdWarm
	streamColdMix
	streamHotGrid
	streamHotPick
	streamStatOp
	streamStatWarm
	streamStatCheck
	streamPaperWarm
)

// outputs collects the digests of a workload's outputs. A key recorded
// again must repeat its digest (every op of paper and warehouse recomputes
// the same outputs); the digests are also compared with the goldens.
type outputs struct {
	mu      sync.Mutex
	sums    map[string]string
	repeats int
	fails   []string
}

func (o *outputs) record(key string, data []byte) {
	sum := sha256.Sum256(data)
	d := hex.EncodeToString(sum[:])
	o.mu.Lock()
	defer o.mu.Unlock()
	if o.sums == nil {
		o.sums = make(map[string]string)
	}
	prev, seen := o.sums[key]
	switch {
	case !seen:
		o.sums[key] = d
	case prev != d:
		o.repeats++
		o.fails = append(o.fails, fmt.Sprintf("%s: output differs between operations", key))
	default:
		o.repeats++
	}
}

func (o *outputs) digests() map[string]string {
	o.mu.Lock()
	defer o.mu.Unlock()
	out := make(map[string]string, len(o.sums))
	for k, v := range o.sums {
		out[k] = v
	}
	return out
}

// verdict reports how many repeated outputs were compared and which
// differed.
func (o *outputs) verdict() (int, []string) {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.repeats, append([]string(nil), o.fails...)
}

func goldenPath(dir string, seed uint64) string {
	return filepath.Join(dir, fmt.Sprintf("seed%d.json", seed))
}

// checkGolden compares the run's digests with the seed's golden file,
// when one exists, or rewrites the workload's entries in it when
// cfg.update is set. Digests the file does not list (outputs of ops
// beyond the recorded ones) are not compared.
func checkGolden(cfg runConfig, got map[string]string) (compared int, fails []string, err error) {
	if cfg.golden == "" {
		return 0, nil, nil
	}
	path := goldenPath(cfg.golden, cfg.seed)
	want := map[string]string{}
	raw, err := os.ReadFile(path)
	switch {
	case errors.Is(err, os.ErrNotExist):
		if !cfg.update {
			return 0, nil, nil
		}
	case err != nil:
		return 0, nil, err
	default:
		if err := json.Unmarshal(raw, &want); err != nil {
			return 0, nil, fmt.Errorf("golden %s: %w", path, err)
		}
	}
	prefix := cfg.workload + "/"
	if cfg.update {
		for k := range want {
			if len(k) > len(prefix) && k[:len(prefix)] == prefix {
				delete(want, k)
			}
		}
		for k, v := range got {
			want[k] = v
		}
		b, err := json.MarshalIndent(want, "", "  ")
		if err != nil {
			return 0, nil, err
		}
		if err := os.MkdirAll(cfg.golden, 0o755); err != nil {
			return 0, nil, err
		}
		return 0, nil, os.WriteFile(path, append(b, '\n'), 0o644)
	}
	keys := make([]string, 0, len(got))
	for k := range got {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		w, ok := want[k]
		if !ok {
			continue
		}
		compared++
		if w != got[k] {
			fails = append(fails, fmt.Sprintf("%s: digest %.12s, golden %.12s (seed %d)", k, got[k], w, cfg.seed))
		}
	}
	return compared, fails, nil
}

// paper regenerates every artifact of experiment.Registry — all thirty
// tables and figures, all four Table VI cases — and renders each as text
// and CSV. One op is one full pass.
type paper struct {
	out  outputs
	seed uint64
	sc   scale
}

func newPaper(seed uint64, sc scale) workload { return &paper{seed: seed, sc: sc} }

func (w *paper) name() string                                   { return "paper" }
func (w *paper) clients() int                                   { return 1 }
func (w *paper) outputs() *outputs                              { return &w.out }
func (w *paper) close()                                         {}
func (w *paper) check(context.Context, *tracer) (int, []string) { return 0, nil }

// setup runs one toy-scale pass, so every engine's code and lazily built
// tables are warm before the first timed pass.
func (w *paper) setup(ctx context.Context) error {
	opts := w.sc.paperWarm
	opts.Seed = derive(w.seed, streamPaperWarm, 0)
	return w.pass(ctx, spanRef{}, opts, false)
}

func (w *paper) op(ctx context.Context, sp spanRef, _ int) error {
	opts := w.sc.paper
	opts.Seed = w.seed
	return w.pass(ctx, sp, opts, true)
}

func (w *paper) pass(ctx context.Context, sp spanRef, opts experiment.Options, record bool) error {
	for _, r := range experiment.Registry() {
		if err := ctx.Err(); err != nil {
			return err
		}
		s := sp.child("experiment", r.ID)
		out, err := r.Run(opts)
		s.end()
		if err != nil {
			return fmt.Errorf("%s: %w", r.ID, err)
		}
		s = sp.child("report", r.ID)
		text, csv := out.Render(), experiment.CSVOf(out)
		s.end()
		if record {
			w.out.record("paper/"+r.ID+".txt", []byte(text))
			w.out.record("paper/"+r.ID+".csv", []byte(csv))
		}
	}
	return nil
}

// warehouse streams tags past the Table V reader grid with the streaming
// engine: 6 m read range, 400k arrivals/s on a 50 ms belt dwell. Every op
// runs the same spec, so every op must produce the same result.
type warehouse struct {
	out  outputs
	seed uint64
	sc   scale

	mu      sync.Mutex
	gaps    []float64 // host time between epoch callbacks, ms
	arrived int64
	slots   int64
	single  int64
}

func newWarehouse(seed uint64, sc scale) workload { return &warehouse{seed: seed, sc: sc} }

func (w *warehouse) name() string                                   { return "warehouse" }
func (w *warehouse) clients() int                                   { return 1 }
func (w *warehouse) outputs() *outputs                              { return &w.out }
func (w *warehouse) close()                                         {}
func (w *warehouse) check(context.Context, *tracer) (int, []string) { return 0, nil }

func (w *warehouse) spec(micros float64, workers int) scenario.Spec {
	return scenario.Spec{
		ReadRangeMetres:   6,
		ArrivalsPerSecond: 400e3,
		DwellMicros:       50e3,
		DurationMicros:    micros,
		Seed:              w.seed,
		Workers:           workers,
	}
}

func (w *warehouse) setup(ctx context.Context) error {
	_, err := w.run(ctx, spanRef{}, w.spec(w.sc.warmMicros, 0), nil)
	return err
}

func (w *warehouse) op(ctx context.Context, sp spanRef, _ int) error {
	last := time.Now()
	var gaps []float64
	res, err := w.run(ctx, sp, w.spec(w.sc.warehouseMicros, 0), func(scenario.Progress) {
		now := time.Now()
		gaps = append(gaps, float64(now.Sub(last).Nanoseconds())/1e6)
		last = now
	})
	if err != nil {
		return err
	}
	b, err := resultBytes(res)
	if err != nil {
		return err
	}
	w.out.record("warehouse/result", b)
	w.mu.Lock()
	defer w.mu.Unlock()
	w.gaps = append(w.gaps, gaps...)
	w.arrived += res.Arrived
	w.slots += int64(res.Census.Slots())
	w.single += int64(res.Census.Single)
	return nil
}

// run executes one scenario and checks its conservation laws.
func (w *warehouse) run(ctx context.Context, sp spanRef, spec scenario.Spec, onEpoch func(scenario.Progress)) (*scenario.Result, error) {
	s := sp.child("scenario", "RunContext")
	res, err := scenario.RunContext(ctx, spec, scenario.Options{OnEpoch: onEpoch})
	s.end()
	if err != nil {
		return nil, err
	}
	if res.Covered != res.Read+res.Missed || res.Arrived < res.Covered {
		return nil, fmt.Errorf("tallies break conservation: arrived %d covered %d read %d missed %d",
			res.Arrived, res.Covered, res.Read, res.Missed)
	}
	return res, nil
}

// resultBytes is the result's JSON with the scheduling-only worker count
// cleared: tallies, census and latency summary.
func resultBytes(res *scenario.Result) ([]byte, error) {
	r := *res
	r.Spec.Workers = 0
	return json.Marshal(r)
}

// layers reports the engine's throughput, shape and parallel speedup:
// the op's spec is run once more on one worker, which must give the
// same result, and its wall time is set against the median op's.
func (w *warehouse) layers(ctx context.Context, mt map[string]float64, lat []float64) error {
	opSecs := sum(lat) / 1e3
	w.mu.Lock()
	mt["engine.slots_per_s"] = float64(w.slots) / opSecs
	mt["engine.single_slot_pct"] = ratioPct(float64(w.single), float64(w.slots))
	mt["scenario.tags_per_s"] = float64(w.arrived) / opSecs
	gaps := append([]float64(nil), w.gaps...)
	w.mu.Unlock()
	sort.Float64s(gaps)
	if len(gaps) > 0 && percentile(gaps, 50) > 0 {
		mt["scenario.epoch_gap_ratio"] = percentile(gaps, 99) / percentile(gaps, 50)
	}

	t0 := time.Now()
	res, err := w.run(ctx, spanRef{}, w.spec(w.sc.warehouseMicros, 1), nil)
	if err != nil {
		return err
	}
	serial := float64(time.Since(t0).Nanoseconds()) / 1e6
	b, err := resultBytes(res)
	if err != nil {
		return err
	}
	w.out.record("warehouse/result", b)
	mt["scenario.parallel_speedup"] = serial / median(lat)
	return nil
}
