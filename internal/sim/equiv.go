package sim

import (
	"fmt"
	"strings"

	"repro/internal/stats"
)

// This file is the statistical-correctness harness for ModeStat. Stat
// mode deliberately abandons exact mode's draw sequence, so "correct"
// cannot mean bit-identical; it means the two modes sample the same
// distributions. The harness runs the same configuration through both
// engines round by round, collects the per-round observables the paper
// reports (total slots, identification time, misidentification rate),
// and applies a two-sample Kolmogorov–Smirnov test per observable with
// a fixed-alpha critical value, so a seeded run has one deterministic
// pass/fail bound instead of a flaky p-value threshold.

// EquivMetric is one observable's exact-vs-stat comparison.
type EquivMetric struct {
	Name      string  // observable ("slots", "time_us", "misid_rate")
	D         float64 // two-sample KS statistic
	Critical  float64 // rejection threshold at the harness alpha
	ExactMean float64
	StatMean  float64
}

// Pass reports whether the observable's distributions are
// indistinguishable at the harness significance level.
func (m EquivMetric) Pass() bool { return m.D <= m.Critical }

// EquivReport is the result of one StatEquivalence run.
type EquivReport struct {
	Cfg     Config
	Rounds  int
	Alpha   float64
	Metrics []EquivMetric
}

// Pass reports whether every observable passed.
func (r *EquivReport) Pass() bool {
	for _, m := range r.Metrics {
		if !m.Pass() {
			return false
		}
	}
	return true
}

// String renders one line per observable, for harness logs.
func (r *EquivReport) String() string {
	var b strings.Builder
	for _, m := range r.Metrics {
		verdict := "ok"
		if !m.Pass() {
			verdict = "REJECT"
		}
		fmt.Fprintf(&b, "%-10s D=%.4f crit=%.4f exact=%.1f stat=%.1f %s\n",
			m.Name, m.D, m.Critical, m.ExactMean, m.StatMean, verdict)
	}
	return b.String()
}

// equivSamples holds one mode's per-round observable samples.
type equivSamples struct {
	slots, timeUs, misid []float64
}

// collect runs cfg (whose Mode is already set) for the given seeds and
// extracts one sample of each observable per round.
func collect(cfg Config, seeds []uint64) (equivSamples, error) {
	s := equivSamples{
		slots:  make([]float64, 0, len(seeds)),
		timeUs: make([]float64, 0, len(seeds)),
		misid:  make([]float64, 0, len(seeds)),
	}
	rs := new(RoundScratch)
	for _, seed := range seeds {
		sess, err := runRound(cfg, seed, &roundEnv{}, rs)
		if err != nil {
			return s, err
		}
		s.slots = append(s.slots, float64(sess.Census.Slots()))
		s.timeUs = append(s.timeUs, sess.TimeMicros)
		rate := 0.0
		if tc := sess.Detection.TrueCollided; tc > 0 {
			rate = float64(sess.Detection.FalseSingle) / float64(tc)
		}
		s.misid = append(s.misid, rate)
	}
	return s, nil
}

// StatEquivalence runs cfg for rounds rounds in exact mode and rounds
// rounds in stat mode and KS-tests each observable at significance
// alpha. cfg.Mode and cfg.Rounds are ignored; the configuration must
// otherwise be valid in both modes (framed ALOHA, ideal channel). The
// result is deterministic in (cfg, rounds): its seeds are RoundSeeds',
// so the harness runs the very rounds an experiment would.
func StatEquivalence(cfg Config, rounds int, alpha float64) (*EquivReport, error) {
	if rounds < 10 {
		return nil, fmt.Errorf("sim: StatEquivalence needs >= 10 rounds, got %d", rounds)
	}
	cfg = cfg.withDefaults()
	exact := cfg
	exact.Mode = ""
	stat := cfg
	stat.Mode = ModeStat
	if err := stat.Validate(); err != nil {
		return nil, err
	}

	seeds := RoundSeeds(cfg.Seed, rounds)

	es, err := collect(exact, seeds)
	if err != nil {
		return nil, fmt.Errorf("sim: equivalence exact runs: %w", err)
	}
	ss, err := collect(stat, seeds)
	if err != nil {
		return nil, fmt.Errorf("sim: equivalence stat runs: %w", err)
	}

	crit := stats.KSCriticalValue(alpha, rounds, rounds)
	rep := &EquivReport{Cfg: stat.Canonical(), Rounds: rounds, Alpha: alpha}
	for _, obs := range []struct {
		name        string
		exact, stat []float64
	}{
		{"slots", es.slots, ss.slots},
		{"time_us", es.timeUs, ss.timeUs},
		{"misid_rate", es.misid, ss.misid},
	} {
		rep.Metrics = append(rep.Metrics, EquivMetric{
			Name:      obs.name,
			D:         stats.KolmogorovSmirnov(obs.exact, obs.stat),
			Critical:  crit,
			ExactMean: mean(obs.exact),
			StatMean:  mean(obs.stat),
		})
	}
	return rep, nil
}

func mean(xs []float64) float64 {
	var a stats.Accumulator
	a.AddAll(xs)
	return a.Mean()
}
