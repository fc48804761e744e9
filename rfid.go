package rfid

import (
	"context"

	"repro/internal/air"
	"repro/internal/aloha"
	"repro/internal/analytic"
	"repro/internal/bitstr"
	"repro/internal/btree"
	"repro/internal/crc"
	"repro/internal/deploy"
	"repro/internal/detect"
	"repro/internal/epc"
	"repro/internal/estimate"
	"repro/internal/experiment"
	"repro/internal/gen2"
	"repro/internal/metrics"
	"repro/internal/mobility"
	"repro/internal/obs"
	"repro/internal/obs/audit"
	"repro/internal/privacy"
	"repro/internal/prng"
	"repro/internal/qtree"
	"repro/internal/report"
	"repro/internal/signal"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/tagmodel"
	"repro/internal/timing"
	"repro/internal/trace"
)

// ---- Simulation API ----

// Config describes one identification experiment; see the field docs on
// the underlying type for defaults (64-bit IDs, strength 8, τ = 1 μs,
// GOMAXPROCS workers).
type Config = sim.Config

// Aggregate is the deterministic cross-round summary Run produces.
type Aggregate = sim.Aggregate

// Session holds the metrics of a single identification run.
type Session = metrics.Session

// Census is the idle/single/collided slot count of a session.
type Census = metrics.Census

// Algorithm names for Config.Algorithm.
const (
	AlgFSA       = sim.AlgFSA       // framed slotted ALOHA
	AlgBT        = sim.AlgBT        // binary tree splitting
	AlgQAdaptive = sim.AlgQAdaptive // EPC Gen-2 Q algorithm
	AlgQT        = sim.AlgQT        // query tree
	AlgEDFSA     = sim.AlgEDFSA     // enhanced dynamic FSA (FrameSize = cap)
)

// Detector names for Config.Detector.
const (
	DetQCD    = sim.DetQCD    // the paper's contribution
	DetCRCCD  = sim.DetCRCCD  // the CRC-based baseline
	DetOracle = sim.DetOracle // idealised lower bound
)

// Frame-policy names for Config.FramePolicy (FSA only).
const (
	PolicyFixed      = sim.PolicyFixed
	PolicySchoute    = sim.PolicySchoute
	PolicyLowerBound = sim.PolicyLowerBound
	PolicyOptimal    = sim.PolicyOptimal
)

// Simulation modes for Config.Mode. The default ("" or ModeExact) is
// the bit-exact per-tag simulation; ModeStat is the opt-in vectorised
// Monte-Carlo mode — same distributions at a fraction of the cost, for
// framed-ALOHA algorithms on the ideal channel (see internal/sim for
// the equivalence contract).
const (
	ModeExact = sim.ModeExact
	ModeStat  = sim.ModeStat
)

// Run executes Config.Rounds Monte-Carlo identification sessions in
// parallel and folds them into a deterministic Aggregate.
func Run(c Config) (*Aggregate, error) { return sim.Run(c) }

// RunContext is Run honouring a context: cancellation is checked between
// rounds, so long experiments can be aborted by a timeout or an explicit
// cancel (the rfidd service relies on this for job cancellation).
func RunContext(ctx context.Context, c Config) (*Aggregate, error) { return sim.RunContext(ctx, c) }

// RunRound executes one session with an explicit round seed; useful when
// the caller wants the raw per-tag delays of a single run.
func RunRound(c Config, roundSeed uint64) (*Session, error) { return sim.RunRound(c, roundSeed) }

// ---- Observability: verdict auditing and live telemetry ----

// Auditor accumulates the shadow-oracle verdict confusion matrix;
// attach one to a run with WithAudit and read it via Auditor.Report.
type Auditor = audit.Auditor

// AuditReport is the auditor's JSON-ready snapshot: per-detector
// confusion cells, measured vs analytic false-single rates, and the
// captured misclassification exemplars.
type AuditReport = audit.Report

// AuditExemplar is one captured misclassified slot.
type AuditExemplar = audit.Exemplar

// NewAuditor returns an auditor retaining at most exemplarCap
// misclassified slots (<= 0 uses the default 64).
func NewAuditor(exemplarCap int) *Auditor {
	return audit.New(obs.NewRegistry(), audit.Options{ExemplarCap: exemplarCap})
}

// WithAudit returns a context that makes RunContext re-classify each
// slot with the ground-truth oracle alongside its configured detector
// and fold the result into a. Auditing only observes: audited runs stay
// bit-identical to unaudited ones.
func WithAudit(ctx context.Context, a *Auditor) context.Context {
	return audit.WithAuditor(ctx, a)
}

// TelemetryBus is a bounded pub/sub stream of live experiment events
// ("round" progress, "frame" censuses, "audit" hits); attach one to a
// run with WithTelemetry and consume it via TelemetryBus.Subscribe.
type TelemetryBus = obs.Bus

// TelemetryEvent is one event on a TelemetryBus.
type TelemetryEvent = obs.StreamEvent

// TelemetrySubscription is one consumer's view of a TelemetryBus.
type TelemetrySubscription = obs.Subscription

// NewTelemetryBus returns a bus retaining historyCap events for replay.
func NewTelemetryBus(historyCap int) *TelemetryBus { return obs.NewBus(historyCap) }

// WithTelemetry returns a context that makes RunContext publish live
// progress events onto bus (the rfidd service streams these over SSE).
func WithTelemetry(ctx context.Context, bus *TelemetryBus) context.Context {
	return obs.WithBus(ctx, bus)
}

// ---- Detection API (the paper's core) ----

// Detector is a pluggable collision-detection scheme.
type Detector = detect.Detector

// SlotType classifies a slot: idle, single or collided.
type SlotType = signal.SlotType

// Slot types.
const (
	Idle     = signal.Idle
	Single   = signal.Single
	Collided = signal.Collided
)

// NewQCD returns the paper's Quick Collision Detection scheme with the
// given strength (random-integer bits; the paper recommends 8) over
// idBits-bit tag IDs.
func NewQCD(strength, idBits int) Detector { return detect.NewQCD(strength, idBits) }

// NewCRCCD returns the CRC-CD baseline using the named CRC preset
// ("CRC-32/IEEE", "CRC-16/EPC", "CRC-5/EPC", ...). ok is false for an
// unknown preset.
func NewCRCCD(presetName string, idBits int) (Detector, bool) {
	p, ok := crc.ByName(presetName)
	if !ok {
		return nil, false
	}
	return detect.NewCRCCD(p, idBits), true
}

// NewOracle returns the idealised detector used in ablations.
func NewOracle(idBits int) Detector { return detect.NewOracle(1, idBits) }

// ---- Bit-level API ----

// BitString is a fixed-length bit string; signals, IDs and preambles are
// BitStrings.
type BitString = bitstr.BitString

// ParseBits builds a BitString from a "0101..." literal.
func ParseBits(s string) (BitString, error) { return bitstr.Parse(s) }

// Overlap returns the bitwise Boolean sum of concurrent transmissions —
// the signal a reader receives when several tags answer in one slot.
func Overlap(tx ...BitString) BitString { return bitstr.OrAll(tx...) }

// Complement is the QCD collision function f(r) = r̄.
func Complement(r BitString) BitString { return bitstr.Not(r) }

// ---- Population and deployment API ----

// Tag is one RFID tag.
type Tag = tagmodel.Tag

// Population is a set of tags with unique IDs.
type Population = tagmodel.Population

// NewPopulation draws n tags with unique random idBits-bit IDs from seed.
func NewPopulation(n, idBits int, seed uint64) Population {
	return tagmodel.NewPopulation(n, idBits, prng.New(seed))
}

// Floor is the multi-reader deployment area of the paper's Table V.
type Floor = deploy.Floor

// Reader is a fixed interrogator on a Floor.
type Reader = deploy.Reader

// NewFloor returns an empty square floor with the given side in metres.
func NewFloor(sideMeters float64) *Floor { return deploy.NewFloor(sideMeters) }

// PaperFloor builds the Table V environment (100 readers on a grid over
// 100 m × 100 m with 3 m range) populated with n random tags.
func PaperFloor(n int, seed uint64) (*Floor, Population) {
	rng := prng.New(seed)
	f := deploy.NewFloor(epc.PaperSetup().AreaMeters)
	f.PlaceReadersGrid(epc.PaperSetup().Readers, epc.PaperSetup().RangeMeters)
	pop := tagmodel.NewPopulation(n, epc.IDBits, rng)
	f.PlaceTags(pop, rng)
	return f, pop
}

// ---- Direct sessions over an existing population ----
//
// Run/RunRound build fresh random populations; the Identify functions run
// one session over tags the caller already holds (e.g. a Floor
// sub-population), using the paper's τ = 1 μs timing.

// IdentifyFSA identifies pop with framed slotted ALOHA at the given frame
// size (clamped to ≥1) under det.
func IdentifyFSA(pop Population, det Detector, frameSize int) *Session {
	if frameSize < 1 {
		frameSize = 1
	}
	return aloha.Exact(pop, det, timing.Default, aloha.Options{}).FSA(aloha.NewFixed(frameSize))
}

// IdentifyBT identifies pop with binary tree splitting under det.
func IdentifyBT(pop Population, det Detector) *Session {
	return btree.Run(pop, det, timing.Default)
}

// IdentifyQAdaptive identifies pop with the EPC Gen-2 Q algorithm under
// det (customary parameters Q0=4, C=0.3).
func IdentifyQAdaptive(pop Population, det Detector) *Session {
	return aloha.Exact(pop, det, timing.Default, aloha.Options{}).QAdaptive(aloha.DefaultQConfig())
}

// IdentifyQT identifies pop with the query-tree protocol under det.
func IdentifyQT(pop Population, det Detector) *Session {
	return qtree.Run(pop, det, timing.Default, qtree.Options{}).Session
}

// QTResult is the query-tree session outcome, including whether the slot
// budget truncated the run (expected under a blocker tag).
type QTResult = qtree.Result

// IdentifyQTWithBlocker runs the query-tree protocol with an optional
// blocker tag defending the subtree rooted at protected (nil = no
// blocker; a pointer to an empty BitString blocks the whole ID space).
// maxSlots bounds the reader's effort; 0 means the default guard.
func IdentifyQTWithBlocker(pop Population, det Detector, protected *BitString, maxSlots int64) *QTResult {
	opt := qtree.Options{MaxSlots: maxSlots}
	if protected != nil {
		opt.Blocker = &qtree.Blocker{Protected: *protected, Rng: prng.New(0xb10c)}
	}
	return qtree.Run(pop, det, timing.Default, opt)
}

// ---- Mobility (Section VI-D: mobile tag environments) ----

// MobilityArrivals configures a flowing tag population: Poisson arrivals
// with a finite dwell in the reader's field.
type MobilityArrivals = mobility.Arrivals

// MobilityResult reports reads, misses and airtime of a mobile run.
type MobilityResult = mobility.Result

// Mobility protocols.
const (
	MobilityBT  = mobility.ProtoBT
	MobilityABS = mobility.ProtoABS
)

// RunMobility simulates a flowing population for durationMicros under the
// given protocol and detector; see MobilityResult.MissRate.
func RunMobility(proto mobility.Protocol, det Detector, arr MobilityArrivals, durationMicros float64, seed uint64) MobilityResult {
	return mobility.Run(proto, det, arr, durationMicros, seed)
}

// ---- Cardinality estimation (Section VI-C) ----

// Estimator predicts the tag backlog from a frame census.
type Estimator = estimate.Estimator

// Estimators returns the built-in estimators (Schoute, lower-bound,
// zero-based, MLE).
func Estimators() []Estimator { return estimate.All() }

// EstimatingPolicy adapts an estimator into an FSA frame policy that
// re-sizes each frame to the estimated backlog (Lemma 1's optimum under
// uncertainty). Use it with IdentifyFSAWithPolicy.
func EstimatingPolicy(est Estimator, initialFrame int) FramePolicy {
	return estimate.NewPolicy(est, initialFrame)
}

// FramePolicy sizes FSA frames; see the aloha package for built-ins.
type FramePolicy = aloha.FramePolicy

// IdentifyFSAWithPolicy runs one FSA session over pop with an explicit
// frame policy.
func IdentifyFSAWithPolicy(pop Population, det Detector, policy FramePolicy) *Session {
	return aloha.Exact(pop, det, timing.Default, aloha.Options{}).FSA(policy)
}

// ---- EPC Gen-2 command-level inventory ----

// Gen2Config parameterises a command-level Gen-2 inventory run.
type Gen2Config = gen2.Config

// Gen2Result is the inventory outcome, including wasted-ACK counters.
type Gen2Result = gen2.Result

// Gen-2 slot-opening reply schemes.
const (
	Gen2RN16  = gen2.ReplyRN16
	Gen2CRCCD = gen2.ReplyCRCCD
	Gen2QCD   = gen2.ReplyQCD
)

// NewGen2Config returns the customary Gen-2 parameters for the scheme
// (detector may be nil for Gen2RN16).
func NewGen2Config(scheme gen2.ReplyScheme, det Detector) Gen2Config {
	return gen2.DefaultConfig(scheme, det)
}

// RunGen2 inventories pop through the full Gen-2 command exchange
// (Query/QueryRep/ACK airtime charged).
func RunGen2(pop Population, cfg Gen2Config) *Gen2Result {
	return gen2.Run(pop, cfg, timing.Default)
}

// ---- Structured workloads ----

// WorkloadKind names a population shape (uniform, single-vendor, ...).
type WorkloadKind = trace.Kind

// Workload shapes.
const (
	WorkloadUniform         = trace.Uniform
	WorkloadSingleVendor    = trace.SingleVendor
	WorkloadMultiVendor     = trace.MultiVendor
	WorkloadClusteredSerial = trace.ClusteredSerial
)

// BuildWorkload constructs a structured population of n tags. All shapes
// yield 96-bit EPC-length IDs (including the uniform one), so any
// detector built for idBits = 96 composes with any workload.
func BuildWorkload(kind WorkloadKind, n int, seed uint64) (Population, error) {
	return trace.Build(trace.Spec{Kind: kind, N: n, IDBits: 96}, prng.New(seed))
}

// SharedPrefixLen reports the population's common ID prefix length — the
// depth a query tree must burn through before any split helps.
func SharedPrefixLen(pop Population) int { return trace.SharedPrefixLen(pop) }

// ---- Channel impairments ----

// ChannelImpairment models a noisy (BER) and/or capturing channel; pass
// it to IdentifyFSAImpaired. See internal/air.Impairment.
type ChannelImpairment = air.Impairment

// NewChannelImpairment builds an impairment with its own random stream.
func NewChannelImpairment(ber, captureProb float64, seed uint64) *ChannelImpairment {
	return &air.Impairment{BER: ber, CaptureProb: captureProb, Rng: prng.New(seed)}
}

// IdentifyFSAImpaired is IdentifyFSA over a non-ideal channel.
func IdentifyFSAImpaired(pop Population, det Detector, frameSize int, im *ChannelImpairment) *Session {
	if frameSize < 1 {
		frameSize = 1
	}
	return aloha.Exact(pop, det, timing.Default, aloha.Options{Impairment: im}).FSA(aloha.NewFixed(frameSize))
}

// ---- Backward-channel privacy (Section II related work) ----

// PrivacySession is a pseudo-ID protected identification dialogue: each
// round the tag replies ID ∨ p for a fresh reader-chosen pseudo-ID p.
type PrivacySession = privacy.Session

// NewPrivacySession starts a dialogue for the given tag ID.
func NewPrivacySession(id BitString, seed uint64) *PrivacySession {
	return privacy.NewSession(id, prng.New(seed))
}

// PrivacyExpectedRounds is the expected number of mixing rounds until the
// reader recovers a full l-bit ID.
func PrivacyExpectedRounds(idBits int) float64 { return privacy.ExpectedRounds(idBits) }

// ---- Timing and statistics ----

// TimingModel converts airtime bits to microseconds; the paper's setting
// is τ = 1 μs per bit.
type TimingModel = timing.Model

// Summary is a statistical snapshot (mean, stddev, percentiles, CI95).
type Summary = stats.Summary

// Summarize computes a Summary of the samples.
func Summarize(xs []float64) Summary { return stats.Summarize(xs) }

// KolmogorovSmirnov returns the two-sample KS statistic between delay (or
// any) distributions; KSPValue gives its asymptotic significance.
func KolmogorovSmirnov(a, b []float64) float64 { return stats.KolmogorovSmirnov(a, b) }

// KSPValue is the asymptotic p-value for a two-sample KS statistic.
func KSPValue(d float64, na, nb int) float64 { return stats.KSPValue(d, na, nb) }

// ---- Closed forms (Sections III & V) ----

// FSAMaxThroughput is Lemma 1's 1/e ≈ 0.37.
func FSAMaxThroughput() float64 { return analytic.FSAMaxThroughput() }

// BTAvgThroughput is Lemma 2's ≈ 0.35.
func BTAvgThroughput() float64 { return analytic.BTAvgThroughput() }

// TheoreticalFSAEI is Table II's minimum efficiency improvement of a
// strength-l QCD over CRC-CD on FSA (l_id = 64, l_crc = 32).
func TheoreticalFSAEI(strength int) float64 {
	return analytic.FSAEI(analytic.PaperLengths(strength))
}

// TheoreticalBTEI is Table III's average EI on BT.
func TheoreticalBTEI(strength int) float64 {
	return analytic.BTEI(analytic.PaperLengths(strength))
}

// ---- Experiment API ----

// ExperimentOptions scales an experiment run (rounds, cases, seed).
type ExperimentOptions = experiment.Options

// Experiment is a registered paper artifact (table, figure, or ablation).
type Experiment = experiment.Runner

// Experiments lists every registered experiment in paper order. One call
// is one reproduction run: the returned experiments share one memo of
// Monte-Carlo aggregates, so a configuration several artifacts need is
// simulated once, by the first artifact that needs it, and read from the
// memo by the rest. Timing the artifacts one by one therefore credits
// shared configurations to that first artifact. RunExperiment and
// RunExperimentCSV start a fresh run on every call.
func Experiments() []Experiment { return experiment.Registry() }

// RunExperiment regenerates one paper artifact by id ("table7", "fig5",
// ...) and returns its rendered text.
func RunExperiment(id string, o ExperimentOptions) (string, error) {
	text, _, err := RunExperimentCSV(id, o)
	return text, err
}

// RunExperimentCSV is RunExperiment returning the tabular data as CSV as
// well (empty when the artifact has none).
func RunExperimentCSV(id string, o ExperimentOptions) (text, csv string, err error) {
	r, ok := experiment.ByID(id)
	if !ok {
		return "", "", errUnknownExperiment(id)
	}
	return RenderExperiment(r, o)
}

// RenderExperiment runs e and returns its rendered text and its tabular
// data as CSV (empty when the artifact has none).
func RenderExperiment(e Experiment, o ExperimentOptions) (text, csv string, err error) {
	out, err := e.Run(o)
	if err != nil {
		return "", "", err
	}
	return out.Render(), experiment.CSVOf(out), nil
}

// RenderSeriesChart parses a series block (as produced inside experiment
// output) and renders it as a log-scale ASCII bar chart; it returns ""
// when the text is not a parseable series.
func RenderSeriesChart(seriesBlock string, width int) string {
	s, err := report.ParseSeries(seriesBlock)
	if err != nil {
		return ""
	}
	return s.LogChart(width)
}

type errUnknownExperiment string

func (e errUnknownExperiment) Error() string {
	return "rfid: unknown experiment \"" + string(e) + "\""
}
