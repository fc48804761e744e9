// Command rfidbench is the repository's end-to-end benchmark. It runs one
// workload — the paper reproduction, the rfidd service under cold and hot
// traffic, stat-mode sweeps, or the warehouse engine — for a fixed
// window, checks the outputs, and prints every metric by name and unit,
// ending with one JSON line:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// Usage, from the repository root (bench/run.sh builds and runs it):
//
//	rfidbench --workload svc-cold --seed 1 --seconds 15 --trace 0
//
// --trace 0 reports the end-to-end metrics. --trace 1 runs the same
// window under a CPU profile, harness spans and /metrics scrapes, and
// reports the per-layer metrics instead; the spans are written as Chrome
// trace-event JSON to --trace-dir/<workload>.trace.json.
// --update-golden rewrites the output digests for the seed under
// --golden instead of checking them.
//
// Every workload runs in a process of its own: sim.Instrument, which
// server.New calls, is process-global and would otherwise add detector
// timing to the paper run.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// procs is the scheduler width every workload runs at.
const procs = 2

type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the system sees, reported by
// untraced runs. An op is one paper pass, experiment, request, sweep or
// warehouse run (see README.md).
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"op_ms_p50", "ms"},
	{"ops_per_s", "1/s"},
	{"cpu_ms_per_op", "ms"},
	{"peak_rss_mb", "MB"},
}

// perLayer are the traced run's metrics. Those a workload does not
// exercise read 0.
var perLayer = func() []metricDef {
	var out []metricDef
	for _, l := range layers {
		out = append(out, metricDef{"cpu_pct." + l, "%"})
	}
	return append(out,
		metricDef{"profile.cpu_ms_per_op", "ms"},
		metricDef{"profile.coverage_pct", "%"},
		metricDef{"cpu.util_pct", "%"},
		metricDef{"gc.cycles", "count"},
		metricDef{"gc.alloc_kb_per_op", "KiB"},
		metricDef{"op.traced_p50_ms", "ms"},
		metricDef{"op.tail_ms", "ms"},
		metricDef{"op.tail_pct", "%"},
		metricDef{"client.conns", "count"},
		metricDef{"client.polls_per_op", "count"},
		metricDef{"client.post_pct", "%"},
		metricDef{"jobs.worker_util_pct", "%"},
		metricDef{"jobs.queue_wait_pct", "%"},
		metricDef{"rescache.hit_pct", "%"},
		metricDef{"sweep.cells_per_s", "1/s"},
		metricDef{"sweep.window_wait_pct", "%"},
		metricDef{"sweep.tail_pct", "%"},
		metricDef{"engine.slots_per_s", "1/s"},
		metricDef{"engine.single_slot_pct", "%"},
		metricDef{"detect.classify_pct", "%"},
		metricDef{"scenario.tags_per_s", "1/s"},
		metricDef{"scenario.epoch_gap_ratio", "ratio"},
		metricDef{"scenario.parallel_speedup", "ratio"},
	)
}()

func main() {
	var (
		name     = flag.String("workload", "", "workload: "+strings.Join(workloadNames(), ", "))
		seed     = flag.Uint64("seed", 1, "workload seed: every generated input derives from it")
		seconds  = flag.Float64("seconds", 15, "measurement window in seconds")
		trace    = flag.Int("trace", 0, "1 runs traced and reports the per-layer metrics")
		traceDir = flag.String("trace-dir", ".bench_build/traces", "directory for the Chrome trace of a traced run")
		golden   = flag.String("golden", "bench/golden", "directory of the per-seed output digests")
		update   = flag.Bool("update-golden", false, "rewrite the seed's output digests instead of checking them")
	)
	flag.Parse()
	if _, ok := workloads[*name]; !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "rfidbench: need --workload {%s}, --seconds > 0 and --trace 0|1\n",
			strings.Join(workloadNames(), ","))
		os.Exit(2)
	}
	runtime.GOMAXPROCS(procs)

	// Every run ends well inside three minutes, even a stuck one.
	ctx, cancel := context.WithTimeout(context.Background(), 150*time.Second)
	defer cancel()
	cfg := runConfig{
		workload: *name,
		seed:     *seed,
		scale:    fullScale(time.Duration(*seconds * float64(time.Second))),
		traced:   *trace == 1,
		traceDir: *traceDir,
		golden:   *golden,
		update:   *update,
	}
	res, err := execute(ctx, cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "rfidbench:", err)
		os.Exit(1)
	}
	defs := endToEnd
	if cfg.traced {
		defs = perLayer
	}
	if err := res.print(os.Stdout, cfg, defs); err != nil {
		fmt.Fprintln(os.Stderr, "rfidbench:", err)
		os.Exit(1)
	}
	if !res.correct() {
		os.Exit(1)
	}
}

// runConfig is one invocation: which workload, at what scale, how.
type runConfig struct {
	workload string
	seed     uint64
	scale    scale
	traced   bool
	traceDir string // Chrome trace output; "" writes none
	golden   string // digest directory; "" skips golden checks
	update   bool
}

// result is everything one run measured.
type result struct {
	attempted, failed int
	failures          []string
	metrics           map[string]float64
}

func (r *result) correct() bool { return r.failed == 0 && len(r.failures) == 0 }

// execute sets the workload up scale.setups times (keeping the last
// system), runs the measurement window, checks the outputs and derives
// every metric, end-to-end and per-layer alike.
func execute(ctx context.Context, cfg runConfig) (*result, error) {
	w := workloads[cfg.workload](cfg.seed, cfg.scale)
	var setups []float64
	for k := 0; k < cfg.scale.setups; k++ {
		if k > 0 {
			w.close()
		}
		t0 := time.Now()
		if err := w.setup(ctx); err != nil {
			w.close()
			return nil, fmt.Errorf("%s setup: %w", cfg.workload, err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer w.close()

	// Start the window from a collected heap, so setup garbage is not
	// billed to the first operations.
	runtime.GC()
	var (
		tr       *tracer
		prof     bytes.Buffer
		expo0    exposition
		ms0, ms1 runtime.MemStats
	)
	svc, _ := w.(interface{ service() *service })
	if cfg.traced {
		tr = newTracer()
		if svc != nil {
			var err error
			if expo0, err = svc.service().scrape(ctx); err != nil {
				return nil, err
			}
		}
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return nil, err
		}
	}
	runtime.ReadMemStats(&ms0)
	cpu0 := cpuTime()
	m := measure(ctx, w, cfg.scale.window, tr, cfg.scale.memOps[cfg.workload])
	cpu := cpuTime() - cpu0
	runtime.ReadMemStats(&ms1)

	res := &result{attempted: m.attempted, failed: m.failed, metrics: make(map[string]float64)}
	res.failures = append(res.failures, m.errs...)
	mt := res.metrics
	var expo exposition
	if cfg.traced {
		pprof.StopCPUProfile()
		if svc != nil {
			end, err := svc.service().scrape(ctx)
			if err != nil {
				return nil, err
			}
			expo = delta(expo0, end)
		}
		for _, d := range perLayer {
			mt[d.name] = 0
		}
		// Workload-specific layer metrics may rerun work, whose outputs
		// the checks below then cover too.
		if x, ok := w.(interface {
			layers(ctx context.Context, mt map[string]float64, lat []float64) error
		}); ok {
			if err := x.layers(ctx, mt, m.lat); err != nil {
				return nil, err
			}
		}
	}

	checks, fails := w.check(ctx, tr)
	res.attempted += checks
	res.failed += len(fails)
	res.failures = append(res.failures, fails...)
	out := w.outputs()
	compared, gfails, err := checkGolden(cfg, out.digests())
	if err != nil {
		return nil, err
	}
	repeats, dfails := out.verdict()
	res.attempted += compared + repeats
	res.failed += len(gfails) + len(dfails)
	res.failures = append(append(res.failures, gfails...), dfails...)
	if len(m.lat) == 0 {
		return nil, fmt.Errorf("%s: no operation completed: %v", cfg.workload, res.failures)
	}

	// End to end.
	n := float64(len(m.lat))
	sorted := append([]float64(nil), m.lat...)
	sort.Float64s(sorted)
	rss := m.rss
	if rss == 0 {
		if rss, err = peakRSS(); err != nil {
			return nil, err
		}
	}
	mt["setup_s"] = median(setups)
	mt["op_ms_p50"] = percentile(sorted, 50)
	mt["ops_per_s"] = n / m.span.Seconds()
	mt["cpu_ms_per_op"] = float64(cpu.Microseconds()) / 1e3 / n
	mt["peak_rss_mb"] = float64(rss) / (1 << 20)
	if !cfg.traced {
		return res, nil
	}

	// Per layer.
	samples, err := readProfile(prof.Bytes())
	if err != nil {
		return nil, err
	}
	share, profNanos := fold(samples)
	for l, s := range share {
		mt["cpu_pct."+l] = 100 * s
	}
	window := m.span.Seconds()
	mt["profile.cpu_ms_per_op"] = float64(profNanos) / 1e6 / n
	mt["profile.coverage_pct"] = ratioPct(float64(profNanos), float64(cpu.Nanoseconds()))
	mt["cpu.util_pct"] = ratioPct(cpu.Seconds(), window*procs)
	mt["gc.cycles"] = float64(ms1.NumGC - ms0.NumGC)
	mt["gc.alloc_kb_per_op"] = float64(ms1.TotalAlloc-ms0.TotalAlloc) / 1024 / n
	mt["op.traced_p50_ms"] = mt["op_ms_p50"]
	mt["op.tail_pct"], mt["op.tail_ms"] = tail(sorted)
	polls, _ := tr.sum("GET poll")
	_, posting := tr.sum("POST ")
	mt["client.polls_per_op"] = float64(polls) / n
	mt["client.post_pct"] = ratioPct(float64(posting.Nanoseconds())/1e6, sum(m.lat))
	if svc != nil {
		mt["client.conns"] = float64(svc.service().cl.dials.Load())
		serviceLayers(mt, expo, window, cpu.Seconds())
	}
	if cfg.traceDir != "" {
		if err := writeTrace(filepath.Join(cfg.traceDir, cfg.workload+".trace.json"), tr); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// serviceLayers derives the rfidd layer metrics from the /metrics delta
// over the window.
func serviceLayers(mt map[string]float64, e exposition, window, cpu float64) {
	busy := e.sum("rfidd_worker_busy_seconds_total")
	mt["jobs.worker_util_pct"] = ratioPct(busy, window*float64(serviceWorkers))
	wait := e.sum("rfidd_queue_wait_seconds_sum")
	mt["jobs.queue_wait_pct"] = ratioPct(wait, wait+e.sum("rfidd_run_seconds_sum"))
	hits := e.sum("rfidd_cache_hits_total")
	mt["rescache.hit_pct"] = ratioPct(hits, hits+e.sum("rfidd_cache_misses_total"))
	cells := e.sum("rfidd_sweep_cells_run_total") + e.sum("rfidd_sweep_cells_cached_total") +
		e.sum("rfidd_sweep_cells_coalesced_total")
	mt["sweep.cells_per_s"] = cells / window
	mt["sweep.window_wait_pct"] = ratioPct(e.sum("rfidd_sweep_window_wait_seconds_sum"), window)
	slots := e.sum("sim_slots_total")
	mt["engine.slots_per_s"] = slots / window
	mt["engine.single_slot_pct"] = ratioPct(e.sum("sim_slots_total", `type="single"`), slots)
	mt["detect.classify_pct"] = ratioPct(e.sum("sim_detector_classify_seconds_sum"), cpu)
}

// ratioPct is 100·a/b, or 0 when b is 0.
func ratioPct(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return 100 * a / b
}

func writeTrace(path string, tr *tracer) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := tr.writeChrome(f); err != nil {
		f.Close()
		return fmt.Errorf("write %s: %w", path, err)
	}
	return f.Close()
}

// window is what one measurement window observed.
type window struct {
	lat               []float64 // successful op latencies, ms
	attempted, failed int
	errs              []string      // the first few op errors
	span              time.Duration // first op start to last op end
	rss               int64         // VmHWM when the memAt-th op ended; 0 if it never did
}

// maxErrs bounds the op errors kept for the report.
const maxErrs = 10

// measure runs w's closed loop: each of w.clients() clients issues its
// next op as soon as the previous one returns, until the window closes.
// Ops in flight at the close finish and count. When memAt > 0, the
// resident-set high-water mark is read as the memAt-th op ends.
func measure(ctx context.Context, w workload, d time.Duration, tr *tracer, memAt int) window {
	var (
		mu   sync.Mutex
		m    window
		last time.Time
		next atomic.Int64
		wg   sync.WaitGroup
	)
	start := time.Now()
	for c := 0; c < w.clients(); c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Since(start) < d && ctx.Err() == nil {
				i := int(next.Add(1) - 1)
				sp := tr.op(w.name())
				t0 := time.Now()
				err := w.op(ctx, sp, i)
				done := time.Now()
				sp.end()
				mu.Lock()
				m.attempted++
				if err != nil {
					m.failed++
					if len(m.errs) < maxErrs {
						m.errs = append(m.errs, fmt.Sprintf("op %d: %v", i, err))
					}
				} else {
					m.lat = append(m.lat, float64(done.Sub(t0).Nanoseconds())/1e6)
				}
				if done.After(last) {
					last = done
				}
				if m.attempted == memAt {
					if rss, err := peakRSS(); err == nil {
						m.rss = rss
					}
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	m.span = last.Sub(start)
	return m
}

// print writes the metrics in defs one per line with their units, then
// the JSON result line.
func (r *result) print(w io.Writer, cfg runConfig, defs []metricDef) error {
	fmt.Fprintf(w, "# %s seed=%d window=%s traced=%v attempted=%d failed=%d\n",
		cfg.workload, cfg.seed, cfg.scale.window, cfg.traced, r.attempted, r.failed)
	for _, f := range r.failures {
		fmt.Fprintln(os.Stderr, "rfidbench: FAIL", f)
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]value, len(defs))
	for _, d := range defs {
		v, ok := r.metrics[d.name]
		if !ok {
			return fmt.Errorf("metric %s was not measured", d.name)
		}
		fmt.Fprintf(w, "%-28s %14.6g %s\n", d.name, v, d.unit)
		metrics[d.name] = value{v, d.unit}
	}
	line, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.correct(), r.attempted, r.failed, metrics})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}
