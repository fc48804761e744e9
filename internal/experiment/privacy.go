package experiment

import (
	"fmt"

	"repro/internal/bitstr"
	"repro/internal/privacy"
	"repro/internal/prng"
	"repro/internal/report"
	"repro/internal/sim"
)

// Privacy evaluates the backward-channel protection of Section II's
// related work: pseudo-ID Boolean-sum mixing (reader recovery cost and
// the same-bit leakage an eavesdropper exploits) and the randomized
// bit-encoding mitigation.
func Privacy(o Options) (Renderable, error) {
	o = o.normalize()
	const idBits = 64

	t := report.NewTable("Backward-channel protection: pseudo-ID mixing (64-bit IDs)",
		"metric", "value", "reference")
	// A round yields the rounds a fresh session took to full recovery,
	// then the residual entropy after each of ks mixing rounds.
	ks := []int{1, 4, 8, 16}
	runs := perRound(o, 1, func(_ int, seed uint64, _ *sim.RoundScratch) []float64 {
		out := make([]float64, 1+len(ks))
		rng := prng.New(seed)
		id := bitstr.FromUint64(rng.Bits(64), 64)
		s := privacy.NewSession(id, rng.Split())
		for k := 1; !s.Complete() || k <= 16; k++ {
			s.Round()
			for i, at := range ks {
				if k == at {
					out[1+i] = s.ResidualEntropyBits()
				}
			}
			if k >= 200 {
				break
			}
		}
		out[0] = float64(recoveryRounds(id, rng.Split()))
		return out
	})[0]
	m := means(runs)
	t.AddRow("rounds to full reader recovery (mean)",
		report.F(m[0], 2),
		fmt.Sprintf("analytic E[max Geom] = %.2f", privacy.ExpectedRounds(idBits)))
	for i, k := range ks {
		t.AddRow(fmt.Sprintf("eavesdropper residual entropy after %d rounds", k),
			report.F(m[1+i], 2)+" bits",
			"64 bits would be perfect secrecy")
	}
	enc := privacy.NewRandomizedBitEncoding(prng.New(o.Seed))
	t.AddRow("randomized bit-encoding residual entropy (any #rounds)",
		report.F(enc.EavesdropperEntropyPerRound(idBits), 0)+" bits",
		"Lim et al.'s mitigation of the same-bit problem")
	t.AddNote("plain OR-mixing leaks to a backward eavesdropper as rounds accumulate (the same-bit problem); re-randomised encodings do not")
	return t, nil
}

// recoveryRounds runs a fresh session to completion and returns the
// rounds used (separated from the entropy loop so both metrics are
// measured on independent sessions).
func recoveryRounds(id bitstr.BitString, rng *prng.Source) int {
	s := privacy.NewSession(id, rng)
	for !s.Complete() {
		s.Round()
		if s.Rounds() >= 200 {
			break
		}
	}
	return s.Rounds()
}
