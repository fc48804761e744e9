// Package stats provides the summary statistics the evaluation reports:
// streaming mean/variance (Welford), confidence intervals for the
// 100-round averages, percentiles for the delay distributions of
// Figure 6, and fixed-width histograms.
package stats

import (
	"fmt"
	"math"
	"sort"
)

// Accumulator computes mean and variance in one streaming pass using
// Welford's algorithm; numerically stable for long runs.
type Accumulator struct {
	n    int64
	mean float64
	m2   float64
	min  float64
	max  float64
}

// Add absorbs one observation.
func (a *Accumulator) Add(x float64) {
	// Inlined, x may still be a caller's unrounded product (a delay is
	// bits·τ); the conversion makes the fold see the stored float64, as
	// AddAll over the recorded values does, and not fuse x - mean.
	x = float64(x)
	a.n++
	if a.n == 1 {
		a.min, a.max = x, x
	} else {
		if x < a.min {
			a.min = x
		}
		if x > a.max {
			a.max = x
		}
	}
	d := x - a.mean
	a.mean += d / float64(a.n)
	// Rounded before the add (explicit conversion): arm64, ppc64le and
	// s390x would otherwise fuse the update and move σ off amd64's bits.
	a.m2 += float64(d * (x - a.mean))
}

// AddAll absorbs a slice of observations.
func (a *Accumulator) AddAll(xs []float64) {
	for _, x := range xs {
		a.Add(x)
	}
}

// N returns the number of observations.
func (a *Accumulator) N() int64 { return a.n }

// Mean returns the sample mean (0 with no observations).
func (a *Accumulator) Mean() float64 { return a.mean }

// Variance returns the unbiased sample variance (0 with <2 observations).
func (a *Accumulator) Variance() float64 {
	if a.n < 2 {
		return 0
	}
	return a.m2 / float64(a.n-1)
}

// StdDev returns the sample standard deviation.
func (a *Accumulator) StdDev() float64 { return math.Sqrt(a.Variance()) }

// Min and Max return the extrema (0 with no observations).
func (a *Accumulator) Min() float64 { return a.min }
func (a *Accumulator) Max() float64 { return a.max }

// CI95 returns the half-width of the normal-approximation 95% confidence
// interval of the mean.
func (a *Accumulator) CI95() float64 {
	if a.n < 2 {
		return 0
	}
	return 1.96 * a.StdDev() / math.Sqrt(float64(a.n))
}

// Merge folds another accumulator into a (Chan et al.'s parallel variance
// combination), so per-round statistics computed concurrently can be
// combined into one deterministic total.
func (a *Accumulator) Merge(b *Accumulator) {
	if b.n == 0 {
		return
	}
	if a.n == 0 {
		*a = *b
		return
	}
	n := a.n + b.n
	d := b.mean - a.mean
	a.m2 += b.m2 + d*d*float64(a.n)*float64(b.n)/float64(n)
	a.mean += d * float64(b.n) / float64(n)
	a.n = n
	if b.min < a.min {
		a.min = b.min
	}
	if b.max > a.max {
		a.max = b.max
	}
}

// Summary is a value snapshot of an Accumulator plus order statistics.
type Summary struct {
	N               int64
	Mean, StdDev    float64
	Min, Max        float64
	P50, P90, P99   float64
	CI95            float64
	CoefOfVariation float64
}

// Summarize computes a full summary of xs (xs is not modified).
func Summarize(xs []float64) Summary {
	var a Accumulator
	a.AddAll(xs)
	s := Summary{
		N: a.N(), Mean: a.Mean(), StdDev: a.StdDev(),
		Min: a.Min(), Max: a.Max(), CI95: a.CI95(),
	}
	if s.Mean != 0 {
		s.CoefOfVariation = s.StdDev / s.Mean
	}
	if len(xs) > 0 {
		sorted := append([]float64(nil), xs...)
		sort.Float64s(sorted)
		s.P50 = Percentile(sorted, 0.50)
		s.P90 = Percentile(sorted, 0.90)
		s.P99 = Percentile(sorted, 0.99)
	}
	return s
}

// Percentile returns the p-quantile (0..1) of sorted data by linear
// interpolation. It panics if data is empty or unsorted input is detected
// at the endpoints.
func Percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		panic("stats: percentile of empty data")
	}
	if p <= 0 {
		return sorted[0]
	}
	if p >= 1 {
		return sorted[len(sorted)-1]
	}
	// Each product is rounded on its own (explicit conversions), so no
	// architecture fuses it into the subtraction or sum that follows.
	pos := float64(p * float64(len(sorted)-1))
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return sorted[lo]
	}
	frac := pos - float64(lo)
	return float64(sorted[lo]*(1-frac)) + float64(sorted[hi]*frac)
}

// Histogram is a fixed-width bucket histogram over [Lo, Hi); values
// outside land in the under/overflow counters.
type Histogram struct {
	Lo, Hi    float64
	Buckets   []int64
	Underflow int64
	Overflow  int64
}

// NewHistogram returns a histogram of n equal buckets over [lo, hi).
func NewHistogram(lo, hi float64, n int) *Histogram {
	if n < 1 || !(hi > lo) {
		panic(fmt.Sprintf("stats: invalid histogram [%v,%v) x%d", lo, hi, n))
	}
	return &Histogram{Lo: lo, Hi: hi, Buckets: make([]int64, n)}
}

// Add places one observation.
func (h *Histogram) Add(x float64) {
	switch {
	case x < h.Lo:
		h.Underflow++
	case x >= h.Hi:
		h.Overflow++
	default:
		i := int((x - h.Lo) / (h.Hi - h.Lo) * float64(len(h.Buckets)))
		if i == len(h.Buckets) { // guard against FP edge at x≈Hi
			i--
		}
		h.Buckets[i]++
	}
}

// Total returns the count of all observations including out-of-range ones.
func (h *Histogram) Total() int64 {
	t := h.Underflow + h.Overflow
	for _, b := range h.Buckets {
		t += b
	}
	return t
}
