package sim

import (
	"fmt"

	"repro/internal/aloha"
	"repro/internal/crc"
	"repro/internal/metrics"
	"repro/internal/obs/audit"
	"repro/internal/signal"
	"repro/internal/timing"
)

// statModel derives the closed-form detector model stat mode evaluates
// from the configured detector. The airtime figures match internal/detect
// exactly (QCD: 2l contention + l_id ID phase; CRC-CD: l_id + l_crc in
// every slot; oracle: 1-bit probe + l_id ID phase) and the false-single
// exponents match the analytic miss models the audit layer checks
// against (QCD Theorem 1's l·(m-1); CRC aliasing's ≈2^-width; the oracle
// never misses).
func statModel(c Config) (aloha.StatModel, error) {
	switch c.Detector {
	case DetQCD:
		return aloha.StatModel{
			Name:           fmt.Sprintf("QCD-%d", c.Strength),
			ContentionBits: 2 * c.Strength,
			IDPhaseBits:    c.IDBits,
			Strength:       c.Strength,
		}, nil
	case DetCRCCD:
		p, ok := crc.ByName(c.CRCName)
		if !ok {
			return aloha.StatModel{}, fmt.Errorf("sim: unknown CRC preset %q", c.CRCName)
		}
		return aloha.StatModel{
			Name:           "CRC-CD/" + p.Name,
			ContentionBits: c.IDBits + p.Width,
			IDPhaseBits:    0,
			MissExp:        p.Width,
		}, nil
	case DetOracle:
		return aloha.StatModel{
			Name:           "oracle",
			ContentionBits: 1,
			IDPhaseBits:    c.IDBits,
			MissExp:        -1,
		}, nil
	default:
		return aloha.StatModel{}, fmt.Errorf("sim: unknown detector %q", c.Detector)
	}
}

// auditObserver adapts the stat engines' per-slot verdict feed to the
// shadow-oracle audit recorder: stat mode has no received signal, so the
// recorder sees a synthetic Reception carrying only the ground-truth
// responder count — exactly what the analytic 2^-(l·(m-1)) expectation
// model consumes.
func auditObserver(rec *audit.Recorder) func(truth, declared signal.SlotType, responders int) {
	return func(truth, declared signal.SlotType, responders int) {
		rec.Observe(truth, declared, signal.Reception{Energy: responders > 0, Responders: responders})
	}
}

// runRoundStat is runRound's vectorised branch: no population is built
// and no detector object runs — the round draws straight from the
// round-seeded stream into the stat engines. Validate has already
// confirmed the algorithm/channel combination.
func runRoundStat(c Config, roundSeed uint64, env roundEnv, rs *RoundScratch) (*metrics.Session, error) {
	model, err := statModel(c)
	if err != nil {
		return nil, err
	}
	rs.rng.Seed(roundSeed)
	tm := timing.Model{TauMicros: c.TauMicros}
	opt := aloha.StatOptions{Scratch: &rs.stat, Session: &rs.sess}

	var rec *audit.Recorder
	if a := activeAuditor.Load(); a != nil {
		strength := 0
		if c.Detector == DetQCD {
			strength = c.Strength
		}
		rec = a.Recorder(model.Name, strength, env.round, env.bus)
		opt.Observe = auditObserver(rec)
	}

	var s *metrics.Session
	switch c.Algorithm {
	case AlgFSA:
		policy, err := buildPolicy(c)
		if err != nil {
			return nil, err
		}
		opt.ConfirmEmpty = c.ConfirmEmpty
		var hooks []func(metrics.FrameInfo)
		if env.span.Valid() {
			hooks = append(hooks, frameSpans(env.span))
		}
		if rec != nil {
			hooks = append(hooks, func(metrics.FrameInfo) { rec.EndFrame() })
		}
		if env.bus.Enabled() {
			hooks = append(hooks, frameEvents(env.bus, env.round))
		}
		opt.FrameHook = combineFrameHooks(hooks)
		s = aloha.RunFSAStat(c.Tags, model, policy, tm, &rs.rng, opt)
	case AlgEDFSA:
		s = aloha.RunEDFSAStat(c.Tags, model, aloha.EDFSAConfig{MaxFrame: c.FrameSize}, tm, &rs.rng, opt)
	case AlgQAdaptive:
		s = aloha.RunQAdaptiveStat(c.Tags, model, aloha.DefaultQConfig(), tm, &rs.rng, opt)
	default:
		return nil, fmt.Errorf("sim: stat mode does not support algorithm %q", c.Algorithm)
	}
	if m := instr.Load(); m != nil {
		m.record(s)
	}
	return s, nil
}
