package sim

// Shadow-oracle verdict auditing: when a run's context carries an
// auditor (audit.WithAuditor), every slot verdict of every round is
// re-classified by the oracle's rule (signal.Classify of the
// ground-truth responder count the reception already carries) and the
// confusion cell folded into that auditor. The wrapper only observes —
// it draws nothing from any tag PRNG — so audited runs stay
// bit-identical to unaudited ones.

import (
	"repro/internal/detect"
	"repro/internal/obs/audit"
	"repro/internal/signal"
)

// auditedDetector wraps the configured detector so that every verdict
// is shadowed by the ground-truth classification.
type auditedDetector struct {
	detect.Detector
	rec *audit.Recorder
}

func (d auditedDetector) Classify(rx signal.Reception) signal.SlotType {
	declared := d.Detector.Classify(rx)
	d.rec.Observe(signal.Classify(rx.Responders), declared, rx)
	return declared
}
