// Package sim orchestrates Monte-Carlo identification experiments: it
// builds tag populations, wires an anti-collision algorithm to a collision
// detector, fans the paper's 100 repetition rounds out over a worker budget
// with Fan, and folds the per-round sessions into deterministic aggregates.
// Fan and RoundSeeds are also the fan-out and seed schedule of the
// experiment drivers' own Monte-Carlo loops and of the scenario engine.
//
// Determinism: round r starts from RoundSeeds' r-th seed, drawn from one
// parent PRNG before any round runs, and per-round results are folded in
// round order after every round finishes, so the aggregate is
// bit-identical regardless of worker count, GOMAXPROCS or scheduling.
package sim

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/air"
	"repro/internal/aloha"
	"repro/internal/btree"
	"repro/internal/crc"
	"repro/internal/detect"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/obs/audit"
	"repro/internal/prng"
	"repro/internal/qtree"
	"repro/internal/sched"
	"repro/internal/stats"
	"repro/internal/tagmodel"
	"repro/internal/timing"
)

// Algorithm names accepted by Config.
const (
	AlgFSA       = "fsa"
	AlgBT        = "bt"
	AlgQAdaptive = "qadaptive"
	AlgQT        = "qt"
	AlgEDFSA     = "edfsa" // enhanced dynamic FSA; FrameSize acts as the frame cap
)

// Detector names accepted by Config.
const (
	DetQCD    = "qcd"
	DetCRCCD  = "crccd"
	DetOracle = "oracle"
)

// Frame policy names for FSA.
const (
	PolicyFixed      = "fixed"
	PolicySchoute    = "schoute"
	PolicyLowerBound = "lowerbound"
	PolicyOptimal    = "optimal"
)

// Simulation modes accepted by Config.Mode.
//
// ModeExact is the default: per-tag PRNG streams consumed in population
// index order, bit-identical across releases and pinned by the golden
// tests. ModeStat is the opt-in vectorised Monte-Carlo mode: slot draws
// are bulk-filled per frame and detector verdicts evaluate over
// word-packed occupancy masks (see internal/aloha's stat engines).
// Stat-mode aggregates are still deterministic in (Config, Seed) and
// bit-identical across worker counts, but follow a different draw
// sequence than exact mode; the two agree distributionally (the KS
// equivalence harness in this package pins that), not draw for draw.
const (
	ModeExact = "exact"
	ModeStat  = "stat"
)

// MaxIDBits is the longest tag ID Validate accepts: 496 bits, the
// largest EPC a Gen-2 tag can backscatter.
const MaxIDBits = 496

// Config describes one experiment configuration.
type Config struct {
	Tags   int    // population size n
	IDBits int    // tag ID length l_id (default 64)
	Seed   uint64 // master seed
	Rounds int    // Monte-Carlo repetitions (paper: 100)

	Algorithm   string // fsa | bt | qadaptive | qt
	FrameSize   int    // FSA frame length F (Table VI)
	FramePolicy string // fixed | schoute | lowerbound | optimal (default fixed)

	Detector string // qcd | crccd | oracle
	Strength int    // QCD strength l (default 8)
	CRCName  string // CRC preset for crccd (default CRC-32/IEEE)

	// Mode selects the simulation fidelity: ModeExact (the default; ""
	// means exact) or the vectorised ModeStat. Mode is part of the
	// canonical configuration — the result cache never serves one mode's
	// aggregate for the other. The canonical spelling of exact mode is
	// the empty string, so pre-Mode configurations keep their canonical
	// hashes and golden serialisations.
	Mode string `json:",omitempty"`

	TauMicros float64 // per-bit airtime (default 1 μs)
	Workers   int     // parallel rounds (default GOMAXPROCS)

	// ConfirmEmpty makes FSA readers terminate only after a fully idle
	// frame (how a real reader detects an empty field; the paper's
	// Table VII idle counts include this frame).
	ConfirmEmpty bool

	// BER and CaptureProb apply a non-ideal channel to exact-mode
	// framed-ALOHA sessions — fsa, edfsa and qadaptive (bit errors fail
	// the self-checks closed; captures singulate one tag out of a
	// collision). Zero means the ideal channel; Validate rejects them for
	// the tree algorithms and for stat mode, which model only that.
	BER         float64
	CaptureProb float64
}

// withDefaults fills zero fields with the paper's defaults.
func (c Config) withDefaults() Config {
	if c.IDBits == 0 {
		c.IDBits = 64
	}
	if c.Rounds == 0 {
		c.Rounds = 1
	}
	if c.FramePolicy == "" {
		c.FramePolicy = PolicyFixed
	}
	if c.Strength == 0 {
		c.Strength = 8
	}
	if c.CRCName == "" {
		c.CRCName = crc.CRC32IEEE.Name
	}
	if c.TauMicros == 0 {
		c.TauMicros = 1
	}
	if c.Mode == ModeExact {
		c.Mode = "" // canonical spelling of the default mode
	}
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	return c
}

// Canonical returns the configuration with every defaulted field filled
// in and scheduling-only fields cleared, so that two configurations
// describing the same experiment compare (and hash) equal. Workers is
// zeroed because the aggregate is bit-identical regardless of
// parallelism (see the package docs).
func (c Config) Canonical() Config {
	c = c.withDefaults()
	c.Workers = 0
	return c
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	c = c.withDefaults()
	if c.Tags < 1 {
		return fmt.Errorf("sim: Tags = %d, need at least 1", c.Tags)
	}
	if c.Rounds < 1 {
		return fmt.Errorf("sim: Rounds = %d, need at least 1", c.Rounds)
	}
	if c.IDBits < 1 || c.IDBits > MaxIDBits {
		return fmt.Errorf("sim: IDBits = %d out of [1,%d]", c.IDBits, MaxIDBits)
	}
	if c.IDBits < 63 && uint64(c.Tags) > uint64(1)<<uint(c.IDBits) {
		return fmt.Errorf("sim: %d tags cannot have unique %d-bit IDs", c.Tags, c.IDBits)
	}
	switch c.Algorithm {
	case AlgFSA:
		if c.FramePolicy == PolicyFixed && c.FrameSize < 1 {
			return fmt.Errorf("sim: FSA with fixed policy needs FrameSize >= 1")
		}
	case AlgEDFSA:
		if c.FrameSize < 1 {
			return fmt.Errorf("sim: EDFSA needs FrameSize >= 1 (the frame cap)")
		}
	case AlgBT, AlgQAdaptive, AlgQT:
	default:
		return fmt.Errorf("sim: unknown algorithm %q", c.Algorithm)
	}
	switch c.Detector {
	case DetQCD:
		if c.Strength < 1 || c.Strength > 64 {
			return fmt.Errorf("sim: QCD strength %d out of [1,64]", c.Strength)
		}
	case DetCRCCD:
		if _, ok := crc.ByName(c.CRCName); !ok {
			return fmt.Errorf("sim: unknown CRC preset %q", c.CRCName)
		}
	case DetOracle:
	default:
		return fmt.Errorf("sim: unknown detector %q", c.Detector)
	}
	impaired := c.BER > 0 || c.CaptureProb > 0
	switch c.Mode {
	case "", ModeExact:
		if impaired && !c.framedALOHA() {
			return fmt.Errorf("sim: %s models the ideal channel only (BER/CaptureProb must be 0)", c.Algorithm)
		}
	case ModeStat:
		if !c.framedALOHA() {
			return fmt.Errorf("sim: stat mode does not support algorithm %q (framed-ALOHA only)", c.Algorithm)
		}
		if impaired {
			return fmt.Errorf("sim: stat mode models the ideal channel only (BER/CaptureProb must be 0)")
		}
	default:
		return fmt.Errorf("sim: unknown mode %q", c.Mode)
	}
	return nil
}

// framedALOHA reports whether the algorithm runs on an aloha slot
// backend (FSA, EDFSA, Q-adaptive) rather than a tree engine.
func (c Config) framedALOHA() bool {
	return c.Algorithm == AlgFSA || c.Algorithm == AlgEDFSA || c.Algorithm == AlgQAdaptive
}

// BuildDetector constructs the configured detector.
func BuildDetector(c Config) (detect.Detector, error) {
	c = c.withDefaults()
	switch c.Detector {
	case DetQCD:
		return detect.NewQCD(c.Strength, c.IDBits), nil
	case DetCRCCD:
		p, ok := crc.ByName(c.CRCName)
		if !ok {
			return nil, fmt.Errorf("sim: unknown CRC preset %q", c.CRCName)
		}
		return detect.NewCRCCD(p, c.IDBits), nil
	case DetOracle:
		return detect.NewOracle(1, c.IDBits), nil
	default:
		return nil, fmt.Errorf("sim: unknown detector %q", c.Detector)
	}
}

func buildPolicy(c Config) (aloha.FramePolicy, error) {
	initial := c.FrameSize // the dynamic policies' first frame, default n
	if initial < 1 {
		initial = c.Tags
	}
	switch c.FramePolicy {
	case PolicyFixed:
		return aloha.NewFixed(c.FrameSize), nil
	case PolicySchoute:
		return aloha.NewSchoute(initial), nil
	case PolicyLowerBound:
		return aloha.NewLowerBound(initial), nil
	case PolicyOptimal:
		return aloha.Optimal{N: c.Tags}, nil
	default:
		return nil, fmt.Errorf("sim: unknown frame policy %q", c.FramePolicy)
	}
}

// RunRound executes one complete identification session for round index r
// and returns its metrics. It is deterministic in (Config, roundSeed).
func RunRound(c Config, roundSeed uint64) (*metrics.Session, error) {
	// A fresh scratch per call: the returned session aliases it, so the
	// public single-round API must never recycle one underneath a caller.
	return runRound(c, roundSeed, &roundEnv{}, new(RoundScratch))
}

// RoundScratch pools the complete working set of one identification
// round — the population (tags, ID dedup set, per-tag PRNG streams),
// the framed-ALOHA backends' working set (slot buffers, frame scheduler
// buckets, stat draw buffers, session), the query-tree arena and
// session, BT's counter groups and session, and the impairment's PRNG
// stream. RunContext holds one per worker, so an experiment allocates
// its round working set Workers times instead of Rounds times; RunRound
// allocates a fresh one per call. Sessions produced with a scratch alias
// it and are only valid until the scratch's next round. Not safe for
// concurrent use.
type RoundScratch struct {
	pop    tagmodel.PopScratch
	aloha  aloha.Scratch
	slot   air.SlotScratch // the query tree's slot buffers
	qt     qtree.Reuse
	sess   metrics.Session // the query tree's session
	bt     btree.Reuse
	imp    air.Impairment
	impRng prng.Source
	rng    prng.Source // stat mode's round stream
	idx    sched.IndexFrame
}

// IndexFrame lends out the scratch's handle-based frame scheduler, the
// piece engines that keep tags in packed stores (internal/scenario's
// streaming readers) borrow in place of the object-based Frame. The
// same aliasing rule applies: frames built on it are valid only until
// the scratch's next use.
func (rs *RoundScratch) IndexFrame() *sched.IndexFrame { return &rs.idx }

// Population draws n tags into the scratch's population storage, draw
// for draw what tagmodel.NewPopulation(n, idBits, rng) draws. With Aloha
// and BT it serves the Monte-Carlo loops that drive the engines
// themselves (internal/experiment's); the aliasing rule above applies.
func (rs *RoundScratch) Population(n, idBits int, rng *prng.Source) tagmodel.Population {
	return rs.pop.NewPopulation(n, idBits, rng)
}

// Aloha lends out the framed-ALOHA backends' working set, for
// aloha.Options.Scratch.
func (rs *RoundScratch) Aloha() *aloha.Scratch { return &rs.aloha }

// BT lends out BT's working set.
func (rs *RoundScratch) BT() *btree.Reuse { return &rs.bt }

// ScratchPool is a concurrency-safe free list of RoundScratch, letting
// callers that run many experiments back to back (the sweep engine, a
// busy service worker) reuse each scratch's population, slot, scheduler
// and session storage across whole runs instead of allocating it per
// run. Scratch contents never influence results — every round rebuilds
// its state from the round seed — so pooling is draw-neutral. The zero
// value is ready to use; a nil *ScratchPool is valid and simply
// allocates fresh scratches.
type ScratchPool struct {
	mu   sync.Mutex
	free []*RoundScratch
}

// Get returns a pooled scratch, or a fresh one when the pool is empty
// or nil.
func (p *ScratchPool) Get() *RoundScratch {
	if p == nil {
		return new(RoundScratch)
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if n := len(p.free); n > 0 {
		rs := p.free[n-1]
		p.free[n-1] = nil
		p.free = p.free[:n-1]
		return rs
	}
	return new(RoundScratch)
}

// Put returns a scratch to the pool. The caller must not use rs (or any
// session aliasing it) afterwards.
func (p *ScratchPool) Put(rs *RoundScratch) {
	if p == nil || rs == nil {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	p.free = append(p.free, rs)
}

// runRound is RunRound with the round's observers. The mode picks the
// slot backend: exact mode builds the population and the detector,
// stat mode draws straight from the round-seeded stream into the
// closed-form detector model, and the algorithm picks the driver. The
// engines get the detector BuildDetector returned, so the metric series
// never change the slot path: they only fold the finished session. The
// auditor is the one wrapper: it shadows every verdict with the ground
// truth, which moves exact slots onto air's generic path. The round
// span and the bus receive per-frame spans and events for the FSA
// reader.
func runRound(c Config, roundSeed uint64, env *roundEnv, rs *RoundScratch) (*metrics.Session, error) {
	c = c.withDefaults()
	if err := c.Validate(); err != nil {
		return nil, err
	}
	tm := timing.Model{TauMicros: c.TauMicros}
	// The reuse fields all come from the round scratch: slot channels,
	// payload buffers, frame buckets, stat draw buffers, the tree arena
	// and the session's slices are allocated at most once per scratch and
	// reused for every slot of every round the scratch serves.
	opt := aloha.Options{Scratch: &rs.aloha, ConfirmEmpty: c.ConfirmEmpty}
	strength := 0
	if c.Detector == DetQCD {
		strength = c.Strength
	}

	var b *aloha.Backend
	var pop tagmodel.Population
	var det detect.Detector
	if c.Mode == ModeStat {
		model, err := statModel(c)
		if err != nil {
			return nil, err
		}
		if env.auditor != nil {
			env.rec = env.auditor.Recorder(model.Name, strength, env.round, env.bus)
			opt.Observe = auditObserver(env.rec)
		}
		opt.FrameHook = env.frameHook(c)
		rs.rng.Seed(roundSeed)
		b = aloha.Stat(c.Tags, model, tm, &rs.rng, opt)
	} else {
		rng := prng.New(roundSeed)
		pop = rs.pop.NewPopulation(c.Tags, c.IDBits, rng)
		var err error
		if det, err = BuildDetector(c); err != nil {
			return nil, err
		}
		if env.auditor != nil {
			env.rec = env.auditor.Recorder(det.Name(), strength, env.round, env.bus)
			det = auditedDetector{Detector: det, rec: env.rec}
		}
		if c.BER > 0 || c.CaptureProb > 0 {
			// Same split draw as the historical rng.Split(), minus the
			// allocation; the stream lands in the pooled source.
			rng.SplitInto(&rs.impRng)
			rs.imp = air.Impairment{BER: c.BER, CaptureProb: c.CaptureProb, Rng: &rs.impRng}
			opt.Impairment = &rs.imp
		}
		if c.framedALOHA() {
			opt.FrameHook = env.frameHook(c)
			b = aloha.Exact(pop, det, tm, opt)
		}
	}

	var s *metrics.Session
	switch c.Algorithm {
	case AlgFSA:
		policy, err := buildPolicy(c)
		if err != nil {
			return nil, err
		}
		s = b.FSA(policy)
	case AlgEDFSA:
		s = b.EDFSA(aloha.EDFSAConfig{MaxFrame: c.FrameSize})
	case AlgQAdaptive:
		s = b.QAdaptive(aloha.DefaultQConfig())
	case AlgBT:
		s = rs.bt.Run(pop, det, tm)
	case AlgQT:
		s = qtree.Run(pop, det, tm, qtree.Options{
			Scratch: &rs.slot, Reuse: &rs.qt, Session: &rs.sess,
		}).Session
	default:
		return nil, fmt.Errorf("sim: unknown algorithm %q", c.Algorithm)
	}
	if env.metrics != nil {
		env.metrics.record(s)
	}
	return s, nil
}

// Aggregate is the cross-round summary of one configuration. Every field
// accumulates one observation per round except Delay, which accumulates
// one observation per identified tag over all rounds.
type Aggregate struct {
	Cfg Config

	// Completed counts the rounds folded in. It equals Cfg.Rounds for a
	// full run and may be smaller for the partial aggregate RunContext
	// returns alongside a cancellation error.
	Completed int

	Idle, Single, Collided stats.Accumulator // slots by ground truth
	Frames, Slots          stats.Accumulator
	Throughput             stats.Accumulator // λ per round
	TimeMicros, Bits       stats.Accumulator
	Accuracy               stats.Accumulator // Figure-5 metric per round
	UR                     stats.Accumulator // Table-IX metric per round
	FalseSingle, Phantom   stats.Accumulator

	DelayMean stats.Accumulator // per-round mean identification delay
	Delay     stats.Accumulator // all tags, all rounds
}

// roundFold is the per-round summary a worker extracts from its pooled
// session the moment the round finishes — everything Aggregate.fold
// needs, copied out by value, so the session's storage can be recycled
// for the worker's next round while the final fold still happens in
// round order. The per-round delay accumulator is the session's own
// fold (metrics.Session.DelayFold), built as each delay was recorded in
// identification order, so the floating-point operation sequence — and
// therefore the aggregate — is bit-identical to folding the full
// sessions.
type roundFold struct {
	census     metrics.Census
	detection  metrics.Detection
	bits       int64
	timeMicros float64
	identified int64
	delay      stats.Accumulator
}

// ur mirrors metrics.Session.UR on the summary's tallies.
func (f roundFold) ur(idBits int) float64 {
	if f.bits == 0 {
		return 0
	}
	return float64(f.identified*int64(idBits)) / float64(f.bits)
}

// summarizeRound extracts a session's fold summary.
func summarizeRound(s *metrics.Session) roundFold {
	return roundFold{
		census:     s.Census,
		detection:  s.Detection,
		bits:       s.Bits,
		timeMicros: s.TimeMicros,
		identified: s.TagsIdentified,
		delay:      s.DelayFold(),
	}
}

type roundResult struct {
	fold roundFold
	ok   bool
	err  error
	rec  *audit.Recorder // the round's audit buffer, flushed in round order
}

// Run executes Config.Rounds independent sessions, in parallel up to
// Config.Workers, and folds them deterministically.
func Run(c Config) (*Aggregate, error) {
	return RunContext(context.Background(), c)
}

// RunContext is Run honouring a context: cancellation is checked between
// rounds (a round, once started, runs to completion), so long experiments
// can be aborted by a timeout or an explicit cancel. On cancellation it
// returns ctx.Err() together with a partial aggregate folding every
// round that did complete (Aggregate.Completed says how many), so
// callers can flush partial results instead of discarding the work.
//
// When the context carries a span context (obs.WithSpan), the run
// records one experiment span under it, one round span per round with
// the slot census attached, and per-frame spans for the FSA reader.
// When it carries an event bus (obs.WithBus), the run publishes one "round"
// progress event per completed round and one "frame" event per FSA
// frame (plus "audit" events when auditing is on), which is what the
// server streams over SSE. When it carries metric series (WithMetrics),
// every finished round is folded into them; when it carries an auditor
// (audit.WithAuditor), every slot verdict is shadowed by the oracle and
// folded into it.
func RunContext(ctx context.Context, c Config) (*Aggregate, error) {
	return RunContextPool(ctx, c, nil)
}

// RunContextPool is RunContext drawing per-worker round scratch from sp
// instead of allocating it, so back-to-back runs (sweep cells) reuse the
// same working sets. A nil pool reproduces RunContext exactly; the
// aggregate is bit-identical either way. The rounds are Fan's units over
// Config.Workers, so at one worker they run on the caller's goroutine.
func RunContextPool(ctx context.Context, c Config, sp *ScratchPool) (*Aggregate, error) {
	c = c.withDefaults()
	if err := c.Validate(); err != nil {
		return nil, err
	}
	bus, m, a := obs.BusFrom(ctx), metricsFrom(ctx), audit.AuditorFrom(ctx)
	expSpan := obs.SpanFrom(ctx).Start("sim", "experiment")
	expCtx := expSpan.Context()
	seeds := RoundSeeds(c.Seed, c.Rounds)

	results := make([]roundResult, c.Rounds)
	var completed atomic.Int64
	// Each worker's scratch serves every round it runs, so the summary
	// is extracted before its next round starts; with a pool the scratch
	// outlives this run too.
	Fan(c.Workers, c.Rounds, sp, UnitFunc(func(r int, rs *RoundScratch) {
		if ctx.Err() != nil {
			return // cancelled: skip the rounds not yet started
		}
		rsp := expCtx.Start("sim", "round")
		env := roundEnv{round: r, span: rsp.Context(), bus: bus, metrics: m, auditor: a}
		s, err := runRound(c, seeds[r], &env, rs)
		if s == nil {
			if rsp.Live() {
				rsp.End(obs.SA("round", r), obs.SA("error", fmt.Sprint(err)))
			}
			results[r] = roundResult{err: err, rec: env.rec}
			return
		}
		if rsp.Live() {
			rsp.End(roundAttrs(r, s)...)
		}
		results[r] = roundResult{fold: summarizeRound(s), ok: true, rec: env.rec}
		done := completed.Add(1)
		if bus.Enabled() {
			bus.Publish("round", map[string]any{
				"round":      r,
				"completed":  done,
				"rounds":     c.Rounds,
				"slots":      s.Census.Slots(),
				"identified": s.TagsIdentified,
				"sim_us":     s.TimeMicros,
			})
		}
	}))
	for _, res := range results {
		res.rec.Flush()
	}

	if ctxErr := ctx.Err(); ctxErr != nil {
		// Fold whatever finished so the caller can flush partial results.
		// The workers' completion counter is the authoritative count — it
		// was incremented once per successful round, bus or no bus — and
		// matches what the partial fold accumulates.
		agg := &Aggregate{Cfg: c}
		for _, res := range results {
			if res.ok {
				agg.foldRound(res.fold)
			}
		}
		if expSpan.Live() {
			expSpan.End(obs.SA("algorithm", c.Algorithm), obs.SA("tags", c.Tags),
				obs.SA("rounds_done", completed.Load()), obs.SA("rounds", c.Rounds), obs.SA("aborted", true))
		}
		return agg, ctxErr
	}
	agg := &Aggregate{Cfg: c}
	for r, res := range results {
		if res.err != nil {
			if expSpan.Live() {
				expSpan.End(obs.SA("algorithm", c.Algorithm), obs.SA("error", res.err.Error()))
			}
			return nil, fmt.Errorf("sim: round %d: %w", r, res.err)
		}
		agg.foldRound(res.fold)
	}
	if expSpan.Live() {
		expSpan.End(obs.SA("algorithm", c.Algorithm), obs.SA("tags", c.Tags),
			obs.SA("rounds_done", agg.Completed), obs.SA("rounds", c.Rounds))
	}
	return agg, nil
}

// foldRound accumulates one round's pre-extracted summary: the derived
// quantities (throughput, accuracy, UR, delay accumulator) come from the
// round's integer tallies.
func (a *Aggregate) foldRound(f roundFold) {
	a.Completed++
	a.Idle.Add(float64(f.census.Idle))
	a.Single.Add(float64(f.census.Single))
	a.Collided.Add(float64(f.census.Collided))
	a.Frames.Add(float64(f.census.Frames))
	a.Slots.Add(float64(f.census.Slots()))
	a.Throughput.Add(f.census.Throughput())
	a.TimeMicros.Add(f.timeMicros)
	a.Bits.Add(float64(f.bits))
	a.Accuracy.Add(f.detection.Accuracy())
	a.UR.Add(f.ur(a.Cfg.IDBits))
	a.FalseSingle.Add(float64(f.detection.FalseSingle))
	a.Phantom.Add(float64(f.detection.Phantom))

	if f.delay.N() > 0 {
		a.DelayMean.Add(f.delay.Mean())
	}
	a.Delay.Merge(&f.delay)
}
