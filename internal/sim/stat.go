package sim

import (
	"repro/internal/aloha"
	"repro/internal/detect"
	"repro/internal/obs/audit"
	"repro/internal/signal"
)

// statModel derives the closed-form detector model stat mode evaluates
// from the configured detector. The airtime figures are the built
// detector's own ContentionBits and IDPhaseBits, so stat mode charges
// every slot exactly what the exact engines do, and the false-single
// exponents match the analytic miss models the audit layer checks
// against (QCD Theorem 1's l·(m-1); CRC aliasing's ≈2^-width; the oracle
// never misses).
func statModel(c Config) (aloha.StatModel, error) {
	det, err := BuildDetector(c)
	if err != nil {
		return aloha.StatModel{}, err
	}
	m := aloha.StatModel{ContentionBits: det.ContentionBits(), IDPhaseBits: det.IDPhaseBits()}
	switch d := det.(type) {
	case *detect.QCD:
		m.Name, m.Strength = d.Name(), d.Strength()
	case *detect.CRCCD:
		m.Name, m.MissExp = d.Name(), d.CRCWidth()
	default: // the oracle
		m.Name, m.MissExp = "oracle", -1
	}
	return m, nil
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
