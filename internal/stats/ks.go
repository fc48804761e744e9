package stats

import (
	"math"
	"sort"
)

// KolmogorovSmirnov computes the two-sample KS statistic
// D = sup_x |F_a(x) − F_b(x)| between the empirical CDFs of two samples.
// It is used to compare identification-delay distributions (Figure 6's
// "more sharply concentrate around the mean" claim) without assuming a
// shape. Inputs need not be sorted; they are not modified.
func KolmogorovSmirnov(a, b []float64) float64 {
	if len(a) == 0 || len(b) == 0 {
		panic("stats: KS on empty sample")
	}
	as := append([]float64(nil), a...)
	bs := append([]float64(nil), b...)
	sort.Float64s(as)
	sort.Float64s(bs)

	var d float64
	i, j := 0, 0
	na, nb := float64(len(as)), float64(len(bs))
	for i < len(as) && j < len(bs) {
		// Advance both walks through every copy of the smaller value
		// before reading the CDF gap: both empirical CDFs jump at a tied
		// value simultaneously, so measuring mid-tie would inflate D by
		// the tie mass — fatal for discrete observables (slot counts,
		// rates massed at zero) where most of the sample is ties.
		v := as[i]
		if bs[j] < v {
			v = bs[j]
		}
		for i < len(as) && as[i] == v {
			i++
		}
		for j < len(bs) && bs[j] == v {
			j++
		}
		if diff := math.Abs(float64(i)/na - float64(j)/nb); diff > d {
			d = diff
		}
	}
	return d
}

// KSPValue returns the asymptotic two-sample p-value for the KS statistic
// d with sample sizes na and nb (Kolmogorov distribution tail).
func KSPValue(d float64, na, nb int) float64 {
	if na < 1 || nb < 1 {
		panic("stats: KS p-value needs positive sample sizes")
	}
	ne := float64(na) * float64(nb) / float64(na+nb)
	lambda := (math.Sqrt(ne) + 0.12 + 0.11/math.Sqrt(ne)) * d
	// Q(λ) = 2 Σ_{k≥1} (−1)^{k−1} e^{−2k²λ²}; the series only converges
	// usefully for λ away from zero — Q(0) = 1 by definition.
	if lambda < 1e-3 {
		return 1
	}
	sum := 0.0
	sign := 1.0
	converged := false
	for k := 1; k <= 100; k++ {
		// Rounded before the sum (explicit conversion): no fused add.
		term := float64(sign * math.Exp(-2*float64(k)*float64(k)*lambda*lambda))
		sum += term
		if math.Abs(term) < 1e-12 {
			converged = true
			break
		}
		sign = -sign
	}
	if !converged {
		return 1
	}
	p := 2 * sum
	switch {
	case p < 0:
		return 0
	case p > 1:
		return 1
	}
	return p
}

// KSCriticalValue returns the two-sample KS rejection threshold at
// significance level alpha for sample sizes na and nb: reject equality
// when D exceeds c(α)·sqrt((na+nb)/(na·nb)) with
// c(α) = sqrt(−ln(α/2)/2). The familiar c(0.05) ≈ 1.358 falls out.
// Stat-mode equivalence harnesses compare against this rather than a
// p-value so a fixed-seed test has one deterministic pass bound.
func KSCriticalValue(alpha float64, na, nb int) float64 {
	if alpha <= 0 || alpha >= 1 {
		panic("stats: KS critical value needs alpha in (0,1)")
	}
	if na < 1 || nb < 1 {
		panic("stats: KS critical value needs positive sample sizes")
	}
	c := math.Sqrt(-math.Log(alpha/2) / 2)
	return c * math.Sqrt(float64(na+nb)/(float64(na)*float64(nb)))
}

// Normalize returns xs scaled by its mean (a copy), for shape-only
// distribution comparisons.
func Normalize(xs []float64) []float64 {
	var a Accumulator
	a.AddAll(xs)
	m := a.Mean()
	out := make([]float64, len(xs))
	if m == 0 {
		copy(out, xs)
		return out
	}
	for i, x := range xs {
		out[i] = x / m
	}
	return out
}
