// Package prng provides a small, fast, deterministic pseudo-random number
// generator with splittable streams.
//
// The simulator needs (a) reproducible runs from a single seed, (b) an
// independent stream per tag and per Monte-Carlo round so that results do
// not depend on scheduling order when rounds execute in parallel, and
// (c) cheap generation, because a 50000-tag case draws millions of slot
// choices. math/rand's global state satisfies none of these, so we carry
// our own xoshiro256** generator seeded through SplitMix64, the
// combination recommended by the xoshiro authors.
package prng

import (
	"math"
	"math/bits"
)

// Source is a xoshiro256** generator. It is NOT safe for concurrent use;
// give each goroutine its own Source via Split.
type Source struct {
	s0, s1, s2, s3 uint64
}

// New returns a Source seeded from seed via SplitMix64 so that even small
// or similar seeds yield well-mixed initial states.
func New(seed uint64) *Source {
	var src Source
	src.seed(seed)
	return &src
}

// Seed re-initialises s from seed exactly as New does, so a pooled
// Source can be reused across rounds without a fresh allocation.
func (s *Source) Seed(seed uint64) { s.seed(seed) }

// seed initialises s from seed via SplitMix64.
func (s *Source) seed(seed uint64) {
	sm := seed
	s.s0 = splitmix64(&sm)
	s.s1 = splitmix64(&sm)
	s.s2 = splitmix64(&sm)
	s.s3 = splitmix64(&sm)
	// The all-zero state is invalid for xoshiro; SplitMix64 cannot emit
	// four zeros in a row, but keep the guard for safety.
	if s.s0|s.s1|s.s2|s.s3 == 0 {
		s.s0 = 1
	}
}

func splitmix64(x *uint64) uint64 {
	*x += 0x9E3779B97F4A7C15
	z := *x
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// Uint64 returns the next 64 pseudo-random bits.
func (s *Source) Uint64() uint64 {
	result := bits.RotateLeft64(s.s1*5, 7) * 9
	t := s.s1 << 17
	s.s2 ^= s.s0
	s.s3 ^= s.s1
	s.s1 ^= s.s2
	s.s0 ^= s.s3
	s.s2 ^= t
	s.s3 = bits.RotateLeft64(s.s3, 45)
	return result
}

// FillUint64 fills dst with the next len(dst) outputs of the stream —
// exactly the values len(dst) successive Uint64 calls would return. The
// generator state lives in registers for the whole pass, so filling a
// frame's worth of draws costs a fraction of the equivalent call loop;
// this is the base kernel of the simulator's vectorised stat mode.
func (s *Source) FillUint64(dst []uint64) {
	s0, s1, s2, s3 := s.s0, s.s1, s.s2, s.s3
	for i := range dst {
		dst[i] = bits.RotateLeft64(s1*5, 7) * 9
		t := s1 << 17
		s2 ^= s0
		s3 ^= s1
		s1 ^= s2
		s0 ^= s3
		s2 ^= t
		s3 = bits.RotateLeft64(s3, 45)
	}
	s.s0, s.s1, s.s2, s.s3 = s0, s1, s2, s3
}

// FillIntn fills dst with uniform draws from [0, n) — the values len(dst)
// successive Intn(n) calls would return, consuming the same underlying
// Uint64 stream (including Lemire rejection resamples), so bulk and
// per-call consumers stay interchangeable. dst is int32 because every
// bounded draw in the simulator is a slot or group index (frames top out
// at 2^15 slots); it panics if n <= 0 or n overflows int32.
func (s *Source) FillIntn(dst []int32, n int) {
	if n <= 0 {
		panic("prng: FillIntn with non-positive n")
	}
	if n > 1<<31-1 {
		panic("prng: FillIntn bound overflows int32")
	}
	un := uint64(n)
	// thresh = 2^64 mod n < n, so testing lo < thresh directly accepts and
	// rejects exactly the draws Uint64n's lazy form does.
	thresh := -un % un
	s0, s1, s2, s3 := s.s0, s.s1, s.s2, s.s3
	next := func() uint64 {
		r := bits.RotateLeft64(s1*5, 7) * 9
		t := s1 << 17
		s2 ^= s0
		s3 ^= s1
		s1 ^= s2
		s0 ^= s3
		s2 ^= t
		s3 = bits.RotateLeft64(s3, 45)
		return r
	}
	for i := range dst {
		hi, lo := bits.Mul64(next(), un)
		for lo < thresh {
			hi, lo = bits.Mul64(next(), un)
		}
		dst[i] = int32(hi)
	}
	s.s0, s.s1, s.s2, s.s3 = s0, s1, s2, s3
}

// Split derives a new statistically independent Source from s, advancing s.
// Each call yields a distinct stream; use one per tag / per round.
func (s *Source) Split() *Source {
	// Seeding a fresh SplitMix64 chain from the parent's output gives
	// streams that do not overlap in practice for simulation workloads.
	return New(s.Uint64())
}

// SplitInto seeds dst with a new independent stream, advancing s exactly
// as Split does. It exists so callers creating many streams (one per tag)
// can batch-allocate the Sources instead of paying one heap allocation
// per Split.
func (s *Source) SplitInto(dst *Source) {
	dst.seed(s.Uint64())
}

// Intn returns a uniform int in [0, n). It panics if n <= 0.
func (s *Source) Intn(n int) int {
	if n <= 0 {
		panic("prng: Intn with non-positive n")
	}
	return int(s.Uint64n(uint64(n)))
}

// Uint64n returns a uniform uint64 in [0, n) using Lemire's nearly
// division-free bounded generation with rejection to remove modulo bias.
func (s *Source) Uint64n(n uint64) uint64 {
	if n == 0 {
		panic("prng: Uint64n with zero n")
	}
	hi, lo := bits.Mul64(s.Uint64(), n)
	if lo < n {
		thresh := -n % n
		for lo < thresh {
			hi, lo = bits.Mul64(s.Uint64(), n)
		}
	}
	return hi
}

// Float64 returns a uniform float64 in [0, 1).
func (s *Source) Float64() float64 {
	return float64(s.Uint64()>>11) / (1 << 53)
}

// binomialInversionCap is the largest mean n·p the CDF-inversion sampler
// handles; above it (1-p)^n underflows long before float64's range ends,
// so Binomial switches to a rounded normal approximation, whose error at
// that size is far below anything a Monte-Carlo round count can resolve.
const binomialInversionCap = 64

// Binomial returns a draw from Binomial(n, p): the number of successes
// in n independent trials of probability p. The simulator's stat mode
// uses it to realise slot occupancies without per-tag draws — when R
// tags each pick uniformly among the F slots of a frame and slots are
// revealed in order, the count in the next slot given the past is
// Binomial(remaining, 1/(slots left)), the sequential decomposition of
// the multinomial. BinomialSlot is the same draw with the constants of
// p = 1/(slots left) looked up instead of recomputed.
//
// Small means draw by CDF inversion (exact up to float64 rounding, O(np)
// expected iterations); means above binomialInversionCap use a clamped
// rounded-normal approximation. It panics if n < 0 or p is outside [0,1].
func (s *Source) Binomial(n int, p float64) int {
	if n < 0 {
		panic("prng: Binomial with negative n")
	}
	if p < 0 || p > 1 {
		panic("prng: Binomial probability out of [0,1]")
	}
	if n == 0 || p == 0 {
		return 0
	}
	if p == 1 {
		return n
	}
	q := 1 - p
	logq := math.Log(q)
	if x := float64(n) * logq; x < expBracketMin && math.Exp(x) == 0 && float64(n)*p <= binomialInversionCap {
		// (1-p)^n underflows, so the inversion's seed mass is 0 and it
		// would stop at k = 1. Only p near 1 gets here: invert the
		// mirrored law Binomial(n, 1-p), whose seed p^n is near 1, at
		// the same one Float64.
		return n - invertAt(n, q/p, float64(n)*math.Log(p), s.Float64())
	}
	return s.binomial(n, p, p/q, logq)
}

// SlotLaw holds the constants of Binomial(·, 1/L), the responder count
// of the next of L slots left: p = 1/L, r = p/(1-p) and logq = log(1-p).
// They depend only on L, so a caller drawing slot after slot can build
// them once per L instead of paying a division pair and a Log per draw.
type SlotLaw struct {
	p, r, logq float64
}

// NewSlotLaw returns the law of Binomial(·, 1/L), computed exactly as
// Binomial(n, 1/float64(L)) computes it, so draws through it carry the
// same bits. It panics if L < 1.
func NewSlotLaw(L int) SlotLaw {
	if L < 1 {
		panic("prng: NewSlotLaw with L < 1")
	}
	p := 1 / float64(L)
	q := 1 - p
	return SlotLaw{p: p, r: p / q, logq: math.Log(q)}
}

// BinomialSlot returns a draw from Binomial(n, 1/L) for law =
// NewSlotLaw(L): the same value, from the same stream consumption, as
// Binomial(n, 1/float64(L)). It panics if n < 0.
func (s *Source) BinomialSlot(n int, law *SlotLaw) int {
	if n < 0 {
		panic("prng: BinomialSlot with negative n")
	}
	if n == 0 {
		return 0
	}
	if law.p == 1 {
		return n
	}
	return s.binomial(n, law.p, law.r, law.logq)
}

// binomial draws Binomial(n, p) for n > 0 and 0 < p < 1, given
// r = p/(1-p) and logq = log(1-p).
func (s *Source) binomial(n int, p, r, logq float64) int {
	mean := float64(float64(n) * p)
	if mean > binomialInversionCap {
		// Normal approximation N(np, np(1-p)), rounded and clamped. At
		// np > 64 the skew correction is below 1e-2 counts; stat mode
		// only reads such large counts as "collided with multiplicity m",
		// where the m-dependence (a 2^-l(m-1) miss probability) is long
		// past underflow anyway.
		z := s.normal()
		k := int(math.Round(mean + float64(z*math.Sqrt(mean*(1-p)))))
		if k < 0 {
			k = 0
		}
		if k > n {
			k = n
		}
		return k
	}
	return invertAt(n, r, float64(n)*logq, s.Float64())
}

// invertAt is invert(n, r, u, math.Exp(x)): invertBracketed's answer
// when it certifies one, else the loop seeded with math.Exp.
func invertAt(n int, r, x, u float64) int {
	if k, ok := invertBracketed(n, r, x, u); ok {
		return k
	}
	return invert(n, r, u, math.Exp(x))
}

// invert is the CDF inversion of Binomial(n, p) at u via the pmf
// recurrence P(k+1) = P(k) · (n-k)/(k+1) · p/(1-p), seeded at
// pk = P(0) = (1-p)^n. Its arithmetic defines every inversion draw; the
// explicit conversion rounds pk before cum adds it, so no compiler fuses
// the two steps into one rounding.
func invert(n int, r, u, pk float64) int {
	cum := pk
	k := 0
	for cum <= u && k < n {
		k++
		pk = float64(pk * (r * float64(n-k+1) / float64(k)))
		cum += pk
		if pk == 0 {
			break // deep-tail underflow; cum can no longer grow
		}
	}
	return k
}

// invertBracketed returns invert(n, r, u, math.Exp(x)) without calling
// math.Exp, or ok = false when it cannot certify the answer. It runs
// invert's recurrence on both ends of a bracket lo ≤ math.Exp(x) ≤ hi at
// once, with the same factors. Multiplying by a non-negative factor and
// adding non-negatives both round monotonically, so the exact chain's pk
// and cum stay between the two chains' at every step; where both chains
// agree on cum > u, so does invert. An ambiguous test, or a pk leaving
// the normal range unless both chains hit 0, returns ok = false.
//
// The explicit conversions here and in invert keep an FMA-fusing
// compiler from merging a product into the following sum, so the chains
// and invert round every step alike on every architecture.
func invertBracketed(n int, r, x, u float64) (k int, ok bool) {
	if !(x >= expBracketMin) {
		return 0, false
	}
	pkLo, pkHi := expBracket(x)
	cumLo, cumHi := pkLo, pkHi
	for {
		if cumLo > u {
			return k, true
		}
		if cumHi > u {
			return 0, false
		}
		if k == n {
			return k, true
		}
		k++
		f := r * float64(n-k+1) / float64(k)
		pkLo = float64(pkLo * f)
		pkHi = float64(pkHi * f)
		cumLo = float64(cumLo + pkLo)
		cumHi = float64(cumHi + pkHi)
		if pkLo < 0x1p-1022 {
			// invert stops at pk == 0 whatever cum is.
			return k, pkHi == 0
		}
	}
}

const (
	// expBracketMin is the least x expBracket takes: e^-700 and the
	// bracket's intermediates stay well inside the normal range.
	expBracketMin = -700
	// expBracketWidth is the bracket's relative half-width, far above the
	// evaluation error below, so any math.Exp accurate to an ulp is inside.
	expBracketWidth = 0x1p-37
)

// exp2Table[j] is 2^(j/256).
var exp2Table = func() (t [256]float64) {
	for j := range t {
		t[j] = math.Exp2(float64(j) / 256)
	}
	return t
}()

// expBracket returns lo ≤ e^x ≤ hi, hi/lo ≈ 1 + 2^-36, for x in
// [expBracketMin, 0]. It writes x = (256m + j)·ln2/256 + r with
// |r| ≤ ln2/512 and evaluates e^x ≈ 2^m · 2^(j/256) · (1 + r + r²/2 + r³/6).
// The truncation error is below r⁴/24 < 2^-42.7, r's own rounding below
// 2^-42.7, and the table and the arithmetic add a few ulps: the estimate
// is within 2^-41.5 of e^x, and the bracket widens it by 2^-37. The
// explicit conversions round every product, so the bracket has the same
// bits on every architecture.
func expBracket(x float64) (lo, hi float64) {
	const (
		invStep = 256 / math.Ln2
		step    = math.Ln2 / 256
		shifter = 0x1.8p52 // adding it rounds |y| < 2^51 to an integer in the low bits
	)
	t := float64(x*invStep) + shifter
	N := int64(math.Float64bits(t) - math.Float64bits(shifter))
	r := x - float64((t-shifter)*step)
	scale := exp2Table[N&255] * math.Float64frombits(uint64(1023+N>>8)<<52)
	v := scale * (1 + r + float64(r*r*(0.5+float64(r*(1.0/6)))))
	return v * (1 - expBracketWidth), v * (1 + expBracketWidth)
}

// Exp returns a draw from the exponential distribution with the given
// mean (-mean·ln U, zero-rejected so the log is always finite). Poisson
// inter-arrival gaps and exponential dwell windows — the mobile-tag flow
// of internal/mobility and internal/scenario — are built from it.
func (s *Source) Exp(mean float64) float64 {
	u := s.Float64()
	for u == 0 {
		u = s.Float64()
	}
	return -mean * math.Log(u)
}

// normal returns a standard normal draw (Box–Muller, one half used).
func (s *Source) normal() float64 {
	u1 := s.Float64()
	for u1 == 0 {
		u1 = s.Float64()
	}
	u2 := s.Float64()
	return math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
}

// Bits returns n random bits packed into the low bits of a uint64: the
// top n bits of one Uint64. For 1 <= n <= 62 that is the very draw
// Intn(1<<n) makes, since Uint64n's multiply-shift by a power of two
// keeps the top bits and never rejects. Bits(0) consumes nothing, where
// Intn(1) consumes one Uint64. It panics unless 0 <= n <= 64.
func (s *Source) Bits(n int) uint64 {
	if n < 0 || n > 64 {
		panic("prng: Bits length out of range")
	}
	if n == 0 {
		return 0
	}
	return s.Uint64() >> (64 - uint(n))
}

// Coin returns a uniform random bit as 0 or 1, the tag's binary-splitting
// choice in BT protocols.
func (s *Source) Coin() int {
	return int(s.Uint64() >> 63)
}

// Perm returns a pseudo-random permutation of [0, n) (Fisher–Yates).
func (s *Source) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := s.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}
