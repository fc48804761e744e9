package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"sort"
	"sync"
	"time"

	"repro/internal/report"
	"repro/internal/server"
	"repro/internal/sim"
	"repro/internal/sweep"
)

// serviceWorkers is the in-process rfidd's pool size: one per core.
const serviceWorkers = procs

// service is an in-process rfidd on a loopback listener, configured as
// the daemon's flag defaults configure it (queue 128, cache 1024, run
// traces, spans, events and history on, request logging at info level),
// with its logs discarded.
type service struct {
	svc *server.Server
	ts  *httptest.Server
	cl  *client
}

func startService() *service {
	svc := server.New(server.Options{
		Workers:    serviceWorkers,
		QueueDepth: 128,
		CacheSize:  1024,
		Logger:     slog.New(slog.NewTextHandler(io.Discard, &slog.HandlerOptions{Level: slog.LevelInfo})),
	})
	ts := httptest.NewServer(svc.Handler())
	return &service{svc: svc, ts: ts, cl: newClient(ts.URL)}
}

// close stops the listener, then drains the pool.
func (s *service) close() {
	if s == nil {
		return
	}
	s.cl.close()
	s.ts.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.svc.Shutdown(ctx); err != nil {
		fmt.Fprintln(os.Stderr, "rfidbench: service shutdown:", err)
	}
}

func (s *service) scrape(ctx context.Context) (exposition, error) {
	var raw []byte
	if err := s.cl.call(ctx, spanRef{}, "GET /metrics", http.MethodGet, "/metrics", nil, &raw); err != nil {
		return nil, err
	}
	return parseExposition(string(raw))
}

func terminal(status string) bool {
	return status == "done" || status == "failed" || status == "canceled"
}

// submit POSTs one experiment and polls it to a terminal state.
func (s *service) submit(ctx context.Context, sp spanRef, cfg sim.Config) (server.ExperimentResponse, error) {
	var r server.ExperimentResponse
	if err := s.cl.call(ctx, sp, "POST /v1/experiments", http.MethodPost, "/v1/experiments",
		server.SubmitRequest{Config: cfg}, &r); err != nil {
		return r, err
	}
	err := s.cl.poll(ctx, sp, "/v1/experiments/"+r.ID, &r, func() bool { return terminal(r.Status) })
	if err == nil && r.Status != "done" {
		err = fmt.Errorf("experiment %s ended %s: %s", r.ID, r.Status, r.Error)
	}
	return r, err
}

// sweepRun is one sweep driven to a terminal state.
type sweepRun struct {
	server.SweepResponse
	// tail is the time from the first poll that saw at most two cells
	// unfinished until the sweep was terminal: the stragglers' share.
	tail time.Duration
}

// runSweep POSTs spec and polls the sweep to a terminal state.
func (s *service) runSweep(ctx context.Context, sp spanRef, spec sweep.Spec) (sweepRun, error) {
	var r sweepRun
	if err := s.cl.call(ctx, sp, "POST /v1/sweeps", http.MethodPost, "/v1/sweeps",
		server.SweepSubmitRequest{Spec: spec}, &r.SweepResponse); err != nil {
		return r, err
	}
	var tailStart time.Time
	err := s.cl.poll(ctx, sp, "/v1/sweeps/"+r.ID, &r.SweepResponse, func() bool {
		if tailStart.IsZero() && r.Counts.Done >= r.Counts.Cells-2 {
			tailStart = time.Now()
		}
		return terminal(r.Status)
	})
	if err != nil {
		return r, err
	}
	r.tail = time.Since(tailStart)
	if r.Status != "done" || r.Counts.Done != r.Counts.Cells {
		return r, fmt.Errorf("sweep %s ended %s with counts %+v", r.ID, r.Status, r.Counts)
	}
	return r, nil
}

func (s *service) cells(ctx context.Context, sp spanRef, id string) ([]server.SweepCellResponse, error) {
	var r server.SweepCellsResponse
	err := s.cl.call(ctx, sp, "GET /v1/sweeps/{id}/cells", http.MethodGet,
		"/v1/sweeps/"+id+"/cells?results=1", nil, &r)
	return r.Cells, err
}

// direct recomputes cfg in-process, exactly as the service encodes it.
func direct(sp spanRef, cfg sim.Config) ([]byte, error) {
	s := sp.child("sim", "sim.Run")
	defer s.end()
	agg, err := sim.Run(cfg)
	if err != nil {
		return nil, err
	}
	return json.Marshal(report.NewAggregateSummary(cfg, agg))
}

// svcCold is a closed loop of four outstanding experiments over two
// connections. Every experiment has a fresh seed, so none is a cache
// hit: engine work and pool queueing dominate.
type svcCold struct {
	out  outputs
	seed uint64
	sc   scale
	svc  *service
	mix  []sim.Config

	mu   sync.Mutex
	done map[int]coldDone
}

type coldDone struct {
	cfg    sim.Config
	result []byte
}

// coldClients is svc-cold's number of outstanding experiments: twice the
// pool, so a queue forms.
const coldClients = 4

func newSvcCold(seed uint64, sc scale) workload {
	w := &svcCold{seed: seed, sc: sc}
	for _, alg := range []string{sim.AlgFSA, sim.AlgBT, sim.AlgQAdaptive, sim.AlgQT, sim.AlgEDFSA} {
		for _, n := range sc.coldTags {
			for _, det := range []string{sim.DetQCD, sim.DetCRCCD} {
				cfg := sim.Config{Tags: n, Rounds: 10, Algorithm: alg, Detector: det}
				switch alg {
				case sim.AlgFSA:
					cfg.FrameSize = n * 6 / 10
				case sim.AlgEDFSA:
					cfg.FrameSize = 128
				}
				w.mix = append(w.mix, cfg)
			}
		}
	}
	rng := rand.New(rand.NewSource(int64(derive(seed, streamColdMix, 0))))
	rng.Shuffle(len(w.mix), func(i, j int) { w.mix[i], w.mix[j] = w.mix[j], w.mix[i] })
	return w
}

func (w *svcCold) name() string      { return "svc-cold" }
func (w *svcCold) clients() int      { return coldClients }
func (w *svcCold) outputs() *outputs { return &w.out }
func (w *svcCold) service() *service { return w.svc }
func (w *svcCold) close()            { w.svc.close(); w.svc = nil }

// setup boots the service and runs every configuration of the mix once
// at one round.
func (w *svcCold) setup(ctx context.Context) error {
	w.svc = startService()
	w.done = make(map[int]coldDone)
	for i, cfg := range w.mix {
		cfg.Rounds = 1
		cfg.Seed = derive(w.seed, streamColdWarm, uint64(i))
		if _, err := w.svc.submit(ctx, spanRef{}, cfg); err != nil {
			return err
		}
	}
	return nil
}

func (w *svcCold) op(ctx context.Context, sp spanRef, i int) error {
	cfg := w.mix[i%len(w.mix)]
	cfg.Seed = derive(w.seed, streamColdOp, uint64(i))
	r, err := w.svc.submit(ctx, sp, cfg)
	if err != nil {
		return err
	}
	if r.Cached {
		return fmt.Errorf("experiment %s was served from the cache", r.ID)
	}
	w.mu.Lock()
	w.done[i] = coldDone{cfg: r.Config, result: r.Result}
	w.mu.Unlock()
	return nil
}

// coldSamples is how many finished experiments are recomputed directly.
const coldSamples = 20

// check recomputes evenly spaced finished experiments in-process; the
// service's bytes must match exactly.
func (w *svcCold) check(ctx context.Context, tr *tracer) (int, []string) {
	w.mu.Lock()
	idx := make([]int, 0, len(w.done))
	for i := range w.done {
		idx = append(idx, i)
	}
	sort.Ints(idx)
	n := min(coldSamples, len(idx))
	picked := make([]coldDone, n)
	for k := range picked {
		picked[k] = w.done[idx[k*len(idx)/n]]
	}
	w.mu.Unlock()

	sp := tr.op("check")
	defer sp.end()
	var fails []string
	for _, d := range picked {
		want, err := direct(sp, d.cfg)
		if err != nil {
			fails = append(fails, err.Error())
		} else if !bytes.Equal(want, d.result) {
			fails = append(fails, fmt.Sprintf("svc-cold: result for %+v differs from a direct run", d.cfg))
		}
	}
	return n, fails
}

// svcHot serves a warmed cache: nine ops in ten POST one cached
// experiment, the tenth POSTs a 2×2 sweep of cached cells and polls it.
// Almost no simulation runs; HTTP, JSON, the cache, sweep bookkeeping
// and observability are the work.
type svcHot struct {
	out  outputs
	seed uint64
	sc   scale
	svc  *service
	grid sweep.Spec
	warm []sim.Config          // canonical cell configs, in grid order
	want map[sim.Config][]byte // warm-up result bytes by canonical config
}

var (
	hotAlgs      = []string{sim.AlgFSA, sim.AlgBT, sim.AlgQAdaptive, sim.AlgQT}
	hotTags      = []int{50, 100}
	hotDets      = []string{sim.DetQCD, sim.DetCRCCD}
	hotStrengths = []int{4, 8, 12, 16}
)

// hotClients matches the connection budget: one op in flight per
// connection.
const hotClients = maxConns

func newSvcHot(seed uint64, sc scale) workload {
	w := &svcHot{seed: seed, sc: sc}
	w.grid = sweep.Spec{
		Name: "warm",
		Base: sim.Config{Rounds: sc.hotRounds, Seed: derive(seed, streamHotGrid, 0), FrameSize: 64},
		Axes: []sweep.Axis{
			{Field: sweep.FieldAlgorithm, Strings: hotAlgs},
			{Field: sweep.FieldTags, Ints: hotTags},
			{Field: sweep.FieldDetector, Strings: hotDets},
			{Field: sweep.FieldStrength, Ints: hotStrengths},
		},
	}
	return w
}

func (w *svcHot) name() string                                   { return "svc-hot" }
func (w *svcHot) clients() int                                   { return hotClients }
func (w *svcHot) outputs() *outputs                              { return &w.out }
func (w *svcHot) service() *service                              { return w.svc }
func (w *svcHot) close()                                         { w.svc.close(); w.svc = nil }
func (w *svcHot) check(context.Context, *tracer) (int, []string) { return 0, nil }

// setup boots the service, runs the 64-cell warm-up sweep and keeps
// every cell's result bytes.
func (w *svcHot) setup(ctx context.Context) error {
	w.svc = startService()
	r, err := w.svc.runSweep(ctx, spanRef{}, w.grid)
	if err != nil {
		return err
	}
	cells, err := w.svc.cells(ctx, spanRef{}, r.ID)
	if err != nil {
		return err
	}
	w.warm = w.warm[:0]
	w.want = make(map[sim.Config][]byte, len(cells))
	for _, c := range cells {
		if c.Status != "done" || len(c.Result) == 0 {
			return fmt.Errorf("warm-up cell %s ended %s", c.Label, c.Status)
		}
		w.warm = append(w.warm, c.Config)
		w.want[c.Config] = c.Result
	}
	return nil
}

func (w *svcHot) op(ctx context.Context, sp spanRef, i int) error {
	pick := derive(w.seed, streamHotPick, uint64(i))
	if i%10 == 9 {
		return w.subSweep(ctx, sp, pick)
	}
	cfg := w.warm[pick%uint64(len(w.warm))]
	var r server.ExperimentResponse
	if err := w.svc.cl.call(ctx, sp, "POST /v1/experiments", http.MethodPost, "/v1/experiments",
		server.SubmitRequest{Config: cfg}, &r); err != nil {
		return err
	}
	if !r.Cached || r.Status != "done" || !bytes.Equal(r.Result, w.want[cfg]) {
		return fmt.Errorf("experiment %s (cached=%v, %s) does not match its warm-up result", r.ID, r.Cached, r.Status)
	}
	return nil
}

// subSweep runs a 2×2 (algorithm × strength) slice of the warm grid at
// one (tags, detector) point; every cell must come from the cache with
// its warm-up bytes.
func (w *svcHot) subSweep(ctx context.Context, sp spanRef, pick uint64) error {
	rng := rand.New(rand.NewSource(int64(pick)))
	algs := rng.Perm(len(hotAlgs))[:2]
	strs := rng.Perm(len(hotStrengths))[:2]
	spec := sweep.Spec{
		Name: "slice",
		Base: w.grid.Base,
		Axes: []sweep.Axis{
			{Field: sweep.FieldAlgorithm, Strings: []string{hotAlgs[algs[0]], hotAlgs[algs[1]]}},
			{Field: sweep.FieldStrength, Ints: []int{hotStrengths[strs[0]], hotStrengths[strs[1]]}},
		},
	}
	spec.Base.Tags = hotTags[rng.Intn(len(hotTags))]
	spec.Base.Detector = hotDets[rng.Intn(len(hotDets))]
	r, err := w.svc.runSweep(ctx, sp, spec)
	if err != nil {
		return err
	}
	if r.Counts.Cached != r.Counts.Cells {
		return fmt.Errorf("sweep %s: %d of %d cells cached", r.ID, r.Counts.Cached, r.Counts.Cells)
	}
	cells, err := w.svc.cells(ctx, sp, r.ID)
	if err != nil {
		return err
	}
	for _, c := range cells {
		if !bytes.Equal(c.Result, w.want[c.Config]) {
			return fmt.Errorf("sweep %s cell %s does not match its warm-up result", r.ID, c.Label)
		}
	}
	return nil
}

// sweepStat runs 72-cell stat-mode sweeps one after another: Table VI
// cases I–IV × {fsa, edfsa, qadaptive} × {qcd, crccd} × strength
// {4, 8, 16}. It is the workload of the stat engines and of the sweep
// runner's cold path, where a few straggler cells set the wall time.
type sweepStat struct {
	out  outputs
	seed uint64
	sc   scale
	svc  *service

	mu   sync.Mutex
	ids  map[int]string // sweep ID by op
	tail time.Duration  // summed sweepRun.tail
}

func newSweepStat(seed uint64, sc scale) workload { return &sweepStat{seed: seed, sc: sc} }

func (w *sweepStat) name() string      { return "sweep-stat" }
func (w *sweepStat) clients() int      { return 1 }
func (w *sweepStat) outputs() *outputs { return &w.out }
func (w *sweepStat) service() *service { return w.svc }
func (w *sweepStat) close()            { w.svc.close(); w.svc = nil }

// goldenSweeps is how many leading sweeps the goldens pin.
const goldenSweeps = 2

func (w *sweepStat) spec(seed uint64) sweep.Spec {
	return sweep.Spec{
		Name: "stat",
		Base: sim.Config{
			Rounds: w.sc.statRounds, Seed: seed, Mode: sim.ModeStat, ConfirmEmpty: true,
		},
		Axes: []sweep.Axis{
			{Field: sweep.FieldCase, Cases: w.sc.statCases},
			{Field: sweep.FieldAlgorithm, Strings: w.sc.statAlgs},
			{Field: sweep.FieldDetector, Strings: []string{sim.DetQCD, sim.DetCRCCD}},
			{Field: sweep.FieldStrength, Ints: w.sc.statStrengths},
		},
	}
}

// setup boots the service and runs the op's grid at one round per cell.
func (w *sweepStat) setup(ctx context.Context) error {
	w.svc = startService()
	w.ids = make(map[int]string)
	spec := w.spec(derive(w.seed, streamStatWarm, 0))
	spec.Base.Rounds = 1
	_, err := w.svc.runSweep(ctx, spanRef{}, spec)
	return err
}

func (w *sweepStat) op(ctx context.Context, sp spanRef, i int) error {
	r, err := w.svc.runSweep(ctx, sp, w.spec(derive(w.seed, streamStatOp, uint64(i))))
	if err != nil {
		return err
	}
	if r.Counts.Cached != 0 || r.Counts.Coalesced != 0 {
		return fmt.Errorf("sweep %s reused results: %+v", r.ID, r.Counts)
	}
	if i < goldenSweeps {
		var csv []byte
		if err := w.svc.cl.call(ctx, sp, "GET /v1/sweeps/{id}/report", http.MethodGet,
			"/v1/sweeps/"+r.ID+"/report?format=csv", nil, &csv); err != nil {
			return err
		}
		w.out.record(fmt.Sprintf("sweep-stat/%d.csv", i), csv)
	}
	w.mu.Lock()
	w.ids[i] = r.ID
	w.tail += r.tail
	w.mu.Unlock()
	return nil
}

// statSamples is how many cells of the first sweep are recomputed.
const statSamples = 3

// check recomputes a few cells of the first sweep in-process; the
// service's bytes must match exactly.
func (w *sweepStat) check(ctx context.Context, tr *tracer) (int, []string) {
	sp := tr.op("check")
	defer sp.end()
	cells, err := w.svc.cells(ctx, sp, w.ids[0])
	if err != nil {
		return 1, []string{err.Error()}
	}
	var fails []string
	for k := 0; k < statSamples && k < len(cells); k++ {
		c := cells[derive(w.seed, streamStatCheck, uint64(k))%uint64(len(cells))]
		want, err := direct(sp, c.Config)
		if err != nil {
			fails = append(fails, err.Error())
		} else if !bytes.Equal(want, c.Result) {
			fails = append(fails, fmt.Sprintf("sweep-stat: cell %s differs from a direct run", c.Label))
		}
	}
	return min(statSamples, len(cells)), fails
}

func (w *sweepStat) layers(_ context.Context, mt map[string]float64, lat []float64) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	mt["sweep.tail_pct"] = ratioPct(float64(w.tail.Nanoseconds())/1e6, sum(lat))
	return nil
}
