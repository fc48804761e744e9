package sim

// Shadow-oracle verdict auditing: when enabled, every slot verdict of
// every round is re-classified by a detect.Oracle (which reads the
// ground-truth responder count the reception already carries) and the
// confusion cell folded into the process-wide auditor. Like metric
// instrumentation, the disabled path costs one atomic pointer load per
// round and nothing per slot.

import (
	"sync/atomic"

	"repro/internal/detect"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/obs/audit"
	"repro/internal/signal"
)

// activeAuditor is the installed auditor, nil when auditing is off.
var activeAuditor atomic.Pointer[audit.Auditor]

// InstrumentAudit enables shadow-oracle verdict auditing process-wide:
// every subsequent round runs the oracle alongside its configured
// detector and folds each verdict into a's confusion matrix.
// Re-installing re-points recording; UninstrumentAudit stops it. The
// wrapper only observes — it draws nothing from any tag PRNG — so
// audited runs stay bit-identical to unaudited ones.
func InstrumentAudit(a *audit.Auditor) { activeAuditor.Store(a) }

// UninstrumentAudit disables verdict auditing.
func UninstrumentAudit() { activeAuditor.Store(nil) }

// auditedDetector wraps the configured detector so that every verdict
// is shadowed by the oracle's ground-truth classification.
type auditedDetector struct {
	detect.Detector
	oracle *detect.Oracle
	rec    *audit.Recorder
}

func (d auditedDetector) Classify(rx signal.Reception) signal.SlotType {
	declared := d.Detector.Classify(rx)
	d.rec.Observe(d.oracle.Classify(rx), declared, rx)
	return declared
}

// frameEvents builds a frame hook publishing one "frame" event per
// completed FSA frame onto the bus.
func frameEvents(bus *obs.Bus, round int) func(metrics.FrameInfo) {
	return func(fi metrics.FrameInfo) {
		bus.Publish("frame", map[string]any{
			"round":    round,
			"frame":    fi.Index,
			"size":     fi.Size,
			"idle":     fi.Idle,
			"single":   fi.Single,
			"collided": fi.Collided,
			"sim_us":   fi.EndMicros,
		})
	}
}

// frameHook assembles the FSA reader's frame hook from whatever
// observers are live — the round's frame spans, the audit recorder's
// frame boundary and the bus's frame events — or returns nil when none
// are (preserving the no-hook fast path in EndFrame). Other algorithms
// get none: their frames are Gen-2 Queries or EDFSA group frames, a few
// slots each, and would flood the per-trace span cap.
func frameHook(c Config, env roundEnv, rec *audit.Recorder) func(metrics.FrameInfo) {
	if c.Algorithm != AlgFSA {
		return nil
	}
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
	switch len(hooks) {
	case 0:
		return nil
	case 1:
		return hooks[0]
	default:
		return func(fi metrics.FrameInfo) {
			for _, h := range hooks {
				h(fi)
			}
		}
	}
}
