package prng

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("same seed diverged at draw %d", i)
		}
	}
}

func TestSeedSensitivity(t *testing.T) {
	a, b := New(1), New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Errorf("seeds 1 and 2 agreed on %d of 100 draws", same)
	}
}

func TestZeroSeedIsValid(t *testing.T) {
	s := New(0)
	if s.Uint64() == 0 && s.Uint64() == 0 && s.Uint64() == 0 {
		t.Error("zero seed produced a degenerate stream")
	}
}

func TestSplitIndependence(t *testing.T) {
	parent := New(7)
	c1 := parent.Split()
	c2 := parent.Split()
	same := 0
	for i := 0; i < 1000; i++ {
		if c1.Uint64() == c2.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Errorf("sibling streams agreed on %d of 1000 draws", same)
	}
}

func TestSplitDeterministic(t *testing.T) {
	a := New(9).Split()
	b := New(9).Split()
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("Split is not deterministic")
		}
	}
}

func TestIntnRange(t *testing.T) {
	s := New(3)
	for _, n := range []int{1, 2, 3, 7, 30, 1 << 20} {
		for i := 0; i < 200; i++ {
			v := s.Intn(n)
			if v < 0 || v >= n {
				t.Fatalf("Intn(%d) = %d out of range", n, v)
			}
		}
	}
}

func TestIntnPanicsNonPositive(t *testing.T) {
	for _, n := range []int{0, -1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Intn(%d) did not panic", n)
				}
			}()
			New(1).Intn(n)
		}()
	}
}

func TestIntnUniformity(t *testing.T) {
	// Chi-square against uniform over 10 buckets; threshold is the 0.999
	// quantile for 9 degrees of freedom, so a false failure is rare and
	// the test is deterministic given the fixed seed.
	s := New(12345)
	const buckets, draws = 10, 100000
	var count [buckets]int
	for i := 0; i < draws; i++ {
		count[s.Intn(buckets)]++
	}
	expected := float64(draws) / buckets
	chi2 := 0.0
	for _, c := range count {
		d := float64(c) - expected
		chi2 += d * d / expected
	}
	if chi2 > 27.88 {
		t.Errorf("chi-square = %.2f exceeds 0.999 quantile (27.88): %v", chi2, count)
	}
}

func TestFloat64Range(t *testing.T) {
	s := New(5)
	sum := 0.0
	const n = 100000
	for i := 0; i < n; i++ {
		f := s.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 = %v out of [0,1)", f)
		}
		sum += f
	}
	if mean := sum / n; math.Abs(mean-0.5) > 0.01 {
		t.Errorf("Float64 mean = %v, want ~0.5", mean)
	}
}

func TestBits(t *testing.T) {
	s := New(11)
	for _, n := range []int{0, 1, 4, 8, 16, 63, 64} {
		for i := 0; i < 100; i++ {
			v := s.Bits(n)
			if n < 64 && v >= 1<<uint(n) {
				t.Fatalf("Bits(%d) = %#x out of range", n, v)
			}
		}
	}
	if New(1).Bits(0) != 0 {
		t.Error("Bits(0) != 0")
	}
}

// TestBitsIsIntnOfPowerOfTwo pins the identity the frame scheduler draws
// power-of-two frames by: Bits(q) returns Intn(1<<q)'s value and leaves
// the stream where Intn leaves it, while the 1-slot draw Intn(1) still
// consumes one Uint64.
func TestBitsIsIntnOfPowerOfTwo(t *testing.T) {
	for q := 1; q <= 62; q++ {
		bits, intn := New(uint64(q)), New(uint64(q))
		for i := 0; i < 200; i++ {
			if got, want := bits.Bits(q), intn.Intn(1<<q); got != uint64(want) {
				t.Fatalf("q=%d draw %d: Bits = %d, Intn = %d", q, i, got, want)
			}
		}
		if *bits != *intn {
			t.Fatalf("q=%d: Bits left the stream elsewhere than Intn", q)
		}
	}
	s, ref := New(3), New(3)
	if s.Intn(1) != 0 {
		t.Fatal("Intn(1) != 0")
	}
	ref.Uint64()
	if *s != *ref {
		t.Fatal("Intn(1) did not consume exactly one draw")
	}
}

func TestBitsPanicsOutOfRange(t *testing.T) {
	for _, n := range []int{-1, 65} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Bits(%d) did not panic", n)
				}
			}()
			New(1).Bits(n)
		}()
	}
}

func TestCoinBalance(t *testing.T) {
	s := New(77)
	ones := 0
	const n = 100000
	for i := 0; i < n; i++ {
		c := s.Coin()
		if c != 0 && c != 1 {
			t.Fatalf("Coin = %d", c)
		}
		ones += c
	}
	if ratio := float64(ones) / n; math.Abs(ratio-0.5) > 0.01 {
		t.Errorf("Coin ones ratio = %v", ratio)
	}
}

func TestPermIsPermutation(t *testing.T) {
	f := func(seed uint64) bool {
		s := New(seed)
		n := 1 + int(seed%64)
		p := s.Perm(n)
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestUint64nBounds(t *testing.T) {
	f := func(seed uint64, n uint64) bool {
		if n == 0 {
			n = 1
		}
		v := New(seed).Uint64n(n)
		return v < n
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestFillUint64MatchesStream(t *testing.T) {
	for _, n := range []int{0, 1, 7, 64, 1000} {
		ref := New(99)
		want := make([]uint64, n)
		for i := range want {
			want[i] = ref.Uint64()
		}
		s := New(99)
		got := make([]uint64, n)
		s.FillUint64(got)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("FillUint64 len %d: draw %d = %#x, want %#x", n, i, got[i], want[i])
			}
		}
		// The state must have advanced identically: the next draw agrees.
		if s.Uint64() != ref.Uint64() {
			t.Fatalf("FillUint64 len %d left the state out of sync", n)
		}
	}
}

func TestFillIntnMatchesIntn(t *testing.T) {
	for _, n := range []int{1, 2, 3, 30, 3000, 1 << 15} {
		ref := New(7)
		want := make([]int32, 500)
		for i := range want {
			want[i] = int32(ref.Intn(n))
		}
		s := New(7)
		got := make([]int32, 500)
		s.FillIntn(got, n)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("FillIntn(%d): draw %d = %d, want %d", n, i, got[i], want[i])
			}
		}
		if s.Uint64() != ref.Uint64() {
			t.Fatalf("FillIntn(%d) consumed a different number of raw draws", n)
		}
	}
}

func TestFillIntnPanicsNonPositive(t *testing.T) {
	for _, n := range []int{0, -1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("FillIntn(%d) did not panic", n)
				}
			}()
			New(1).FillIntn(make([]int32, 4), n)
		}()
	}
}

func TestBinomialEdgeCases(t *testing.T) {
	s := New(3)
	if got := s.Binomial(0, 0.5); got != 0 {
		t.Errorf("Binomial(0, .5) = %d", got)
	}
	if got := s.Binomial(10, 0); got != 0 {
		t.Errorf("Binomial(10, 0) = %d", got)
	}
	if got := s.Binomial(10, 1); got != 10 {
		t.Errorf("Binomial(10, 1) = %d", got)
	}
	for _, bad := range []struct {
		n int
		p float64
	}{{-1, 0.5}, {10, -0.1}, {10, 1.1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Binomial(%d, %v) did not panic", bad.n, bad.p)
				}
			}()
			s.Binomial(bad.n, bad.p)
		}()
	}
}

// TestBinomialMatchesPMF chi-squares the inversion sampler against the
// exact Binomial(n, p) pmf on small n where every mass is computable.
func TestBinomialMatchesPMF(t *testing.T) {
	const n, draws = 8, 40000
	p := 0.3
	s := New(11)
	var counts [n + 1]int
	for i := 0; i < draws; i++ {
		k := s.Binomial(n, p)
		if k < 0 || k > n {
			t.Fatalf("draw %d out of [0,%d]", k, n)
		}
		counts[k]++
	}
	// Exact pmf by the same recurrence (independent of the sampler's u).
	pmf := make([]float64, n+1)
	pmf[0] = math.Pow(1-p, n)
	for k := 1; k <= n; k++ {
		pmf[k] = pmf[k-1] * (p / (1 - p)) * float64(n-k+1) / float64(k)
	}
	chi2 := 0.0
	for k := 0; k <= n; k++ {
		exp := pmf[k] * draws
		if exp < 1 {
			continue // deep tail; one stray draw would dominate chi2
		}
		d := float64(counts[k]) - exp
		chi2 += d * d / exp
	}
	// ~8 effective dof; chi2 > 35 is p < 1e-4 territory.
	if chi2 > 35 {
		t.Errorf("chi-square %.1f too large; counts %v", chi2, counts)
	}
}

// TestBinomialLargeMeanMoments checks the normal-approximation branch
// (mean above binomialInversionCap) keeps the right first two moments.
func TestBinomialLargeMeanMoments(t *testing.T) {
	const n, draws = 5000, 20000
	p := 0.25 // mean 1250, far above the inversion cap
	s := New(13)
	var sum, sumSq float64
	for i := 0; i < draws; i++ {
		k := s.Binomial(n, p)
		if k < 0 || k > n {
			t.Fatalf("draw %d out of [0,%d]", k, n)
		}
		f := float64(k)
		sum += f
		sumSq += f * f
	}
	mean := sum / draws
	variance := sumSq/draws - mean*mean
	wantMean := float64(n) * p
	wantVar := wantMean * (1 - p)
	// 4σ tolerance on the sample mean; 10% on the sample variance.
	if math.Abs(mean-wantMean) > 4*math.Sqrt(wantVar/draws) {
		t.Errorf("mean %.2f, want %.2f", mean, wantMean)
	}
	if math.Abs(variance-wantVar)/wantVar > 0.10 {
		t.Errorf("variance %.1f, want %.1f", variance, wantVar)
	}
}

// slotLawLs samples L over [1, 2^15]: every L up to 300, then a
// geometric ladder with each rung's neighbours, then the top.
func slotLawLs() []int {
	var ls []int
	for L := 1; L <= 300; L++ {
		ls = append(ls, L)
	}
	for L := 301; L < 1<<15; L = L*9/8 + 1 {
		ls = append(ls, L-1, L, L+1)
	}
	for L := 1<<15 - 2; L <= 1<<15; L++ {
		ls = append(ls, L)
	}
	return ls
}

// TestBinomialNearOneMean: where (1-p)^n underflows (p within 1e-5 of 1
// at n = 64) the inversion's seed mass is 0, so Binomial must draw the
// mirrored law instead of stopping at k = 1. The mean of 1000 draws sits
// within 0.01 of n·p.
func TestBinomialNearOneMean(t *testing.T) {
	const n, draws = 64, 1000
	for _, p := range []float64{1 - 1e-12, 0.999999} {
		s := New(math.Float64bits(p))
		sum := 0
		for i := 0; i < draws; i++ {
			k := s.Binomial(n, p)
			if k < 0 || k > n {
				t.Fatalf("p=%v: draw %d out of [0,%d]", p, k, n)
			}
			sum += k
		}
		if mean := float64(sum) / draws; math.Abs(mean-n*p) > 0.01 {
			t.Errorf("p=%v: mean of %d draws %.4f, want %.4f", p, draws, mean, n*p)
		}
	}
}

// referenceBinomial is Binomial as it stood before the bracketed
// inversion: the CDF inversion seeded with math.Exp, nothing shared with
// invertBracketed, so the differential tests below can catch a bug in
// the bracket. The normal branch is the package's own, and so is the
// mirror where (1-p)^n underflows.
func referenceBinomial(s *Source, n int, p float64) int {
	if n == 0 || p == 0 {
		return 0
	}
	if p == 1 {
		return n
	}
	q := 1 - p
	r, logq := p/q, math.Log(q)
	mean := float64(n) * p
	if mean > binomialInversionCap {
		z := s.normal()
		k := int(math.Round(mean + z*math.Sqrt(mean*(1-p))))
		return max(0, min(k, n))
	}
	if pk := math.Exp(float64(n) * logq); pk > 0 {
		return referenceInvert(n, r, s.Float64(), pk)
	}
	return n - referenceInvert(n, q/p, s.Float64(), math.Exp(float64(n)*math.Log(p)))
}

// referenceInvert is the inversion loop referenceBinomial runs.
func referenceInvert(n int, r, u, pk float64) int {
	cum := pk
	k := 0
	for cum <= u && k < n {
		k++
		pk *= r * float64(n-k+1) / float64(k)
		cum += pk
		if pk == 0 {
			break
		}
	}
	return k
}

// TestBinomialMatchesReference pins Binomial(n, 1/float64(L)) to
// referenceBinomial draw for draw on identical streams: same value and
// same stream consumption, on both sides of the mean = 64 switch. A
// handful of other p reach the bracket's domain edges: x = 0 (p below
// an ulp of 1) and x < -700 (p near 1).
func TestBinomialMatchesReference(t *testing.T) {
	const draws = 16
	check := func(n int, p float64, seed uint64) {
		t.Helper()
		a, b := New(seed), New(seed)
		for i := 0; i < draws; i++ {
			want := referenceBinomial(a, n, p)
			if got := b.Binomial(n, p); got != want {
				t.Fatalf("n=%d p=%v draw %d: Binomial = %d, reference = %d", n, p, i, got, want)
			}
		}
		if a.Uint64() != b.Uint64() {
			t.Fatalf("n=%d p=%v: Binomial consumed a different number of raw draws", n, p)
		}
	}
	for _, L := range slotLawLs() {
		for _, n := range []int{1, 2, 3, 64*L - 1, 64*L + 1, 50000} {
			if n > 0 {
				check(n, 1/float64(L), uint64(L)<<20^uint64(n))
			}
		}
	}
	for _, p := range []float64{0.3, 0.5, 0.9, 0.999, 1 - 1e-12, 1e-17} {
		for _, n := range []int{1, 5, 64, 70} {
			check(n, p, math.Float64bits(p)^uint64(n))
		}
	}
}

// TestBinomialSlotMatchesBinomial pins BinomialSlot(n, NewSlotLaw(L))
// and Binomial(n, 1/float64(L)) to referenceBinomial draw for draw on
// identical streams: same value and same stream consumption, both sides
// of the mean = 64 switch to the normal approximation.
func TestBinomialSlotMatchesBinomial(t *testing.T) {
	const draws = 8
	for _, L := range slotLawLs() {
		law := NewSlotLaw(L)
		// The constants themselves carry Binomial's bits, so draws agree
		// even where u lands within an ulp of a CDF step.
		p := 1 / float64(L)
		if law.p != p || law.r != p/(1-p) || law.logq != math.Log(1-p) {
			t.Fatalf("NewSlotLaw(%d) = %+v, not Binomial's constants", L, law)
		}
		for _, n := range []int{0, 1, 2, 64*L - 1, 64 * L, 64*L + 1, 50000} {
			seed := uint64(L)<<20 ^ uint64(n)
			ref, a, b := New(seed), New(seed), New(seed)
			for i := 0; i < draws; i++ {
				want := referenceBinomial(ref, n, p)
				if got := a.Binomial(n, p); got != want {
					t.Fatalf("L=%d n=%d draw %d: Binomial = %d, reference = %d", L, n, i, got, want)
				}
				if got := b.BinomialSlot(n, &law); got != want {
					t.Fatalf("L=%d n=%d draw %d: BinomialSlot = %d, reference = %d", L, n, i, got, want)
				}
			}
			next := ref.Uint64()
			if a.Uint64() != next || b.Uint64() != next {
				t.Fatalf("L=%d n=%d: stream consumption differs from the reference", L, n)
			}
		}
	}
}

// TestInvertBracketedFallsBackAtCDFSteps sets u exactly at, and an ulp
// either side of, the reference chain's CDF steps, where no bracket can
// decide cum > u: invertBracketed must decline the exact steps, and
// invertAt must return the reference k at every u.
func TestInvertBracketedFallsBackAtCDFSteps(t *testing.T) {
	declined := 0
	for _, L := range []int{2, 3, 16, 781, 1 << 15} {
		law := NewSlotLaw(L)
		for _, n := range []int{1, 2, 7, L, 3 * L, 64 * L} {
			x := float64(n) * law.logq
			pk0 := math.Exp(x)
			pk, cum := pk0, pk0
			for k := 0; k < min(n, 40) && cum < 1; k++ {
				if _, ok := invertBracketed(n, law.r, x, cum); ok {
					t.Errorf("L=%d n=%d: u = cum_%d = %v certified", L, n, k, cum)
				} else {
					declined++
				}
				for _, u := range []float64{math.Nextafter(cum, 0), cum, math.Nextafter(cum, 1)} {
					if got, want := invertAt(n, law.r, x, u), referenceInvert(n, law.r, u, pk0); got != want {
						t.Errorf("L=%d n=%d u=%v: invertAt = %d, reference = %d", L, n, u, got, want)
					}
				}
				pk *= law.r * float64(n-k) / float64(k+1)
				cum += pk
			}
		}
	}
	if declined == 0 {
		t.Fatal("no CDF step was tried")
	}
	// u at or past the top of the CDF walks the chain to k = n or into
	// underflow, where the bracket must decline until both ends hit 0.
	for _, L := range []int{2, 3, 781, 1 << 15} {
		law := NewSlotLaw(L)
		for _, n := range []int{1, 3, L, 64 * L} {
			x := float64(n) * law.logq
			for _, u := range []float64{1 - 0x1p-53, 1, 2} {
				if got, want := invertAt(n, law.r, x, u), referenceInvert(n, law.r, u, math.Exp(x)); got != want {
					t.Errorf("L=%d n=%d u=%v: invertAt = %d, reference = %d", L, n, u, got, want)
				}
			}
		}
	}
}

// TestInvertBracketedRarelyFallsBack keeps the bracket useful: over the
// slot laws that reach the inversion (L > 1) and uniform u, nearly
// every inversion is certified.
func TestInvertBracketedRarelyFallsBack(t *testing.T) {
	s := New(5)
	tried, declined := 0, 0
	for _, L := range slotLawLs()[1:] {
		law := NewSlotLaw(L)
		for _, n := range []int{1, 2, L / 2, L, 4 * L, 64 * L} {
			if n < 1 {
				continue
			}
			x := float64(n) * law.logq
			for i := 0; i < 20; i++ {
				tried++
				if _, ok := invertBracketed(n, law.r, x, s.Float64()); !ok {
					declined++
				}
			}
		}
	}
	if declined > tried/1000 {
		t.Fatalf("%d of %d inversions fell back", declined, tried)
	}
}

// TestExpBracketContainsExp checks lo ≤ math.Exp(x) ≤ hi with four ulps
// to spare, so any Exp accurate to an ulp is inside, on 10^6 x over the
// slot laws' range [-90, 0], a sample of the rest of the domain and its
// edges; and that the bracket stays near its 2^-36 relative width.
func TestExpBracketContainsExp(t *testing.T) {
	check := func(x float64) {
		lo, hi := expBracket(x)
		e := math.Exp(x)
		if !(lo <= e*(1-0x1p-50) && e*(1+0x1p-50) <= hi) {
			t.Fatalf("x=%v: bracket [%v, %v] misses Exp = %v", x, lo, hi, e)
		}
		if w := hi/lo - 1; w > 0x1p-35 {
			t.Fatalf("x=%v: relative width %v", x, w)
		}
	}
	s := New(17)
	for i := 0; i < 1_000_000; i++ {
		check(-90 * s.Float64())
	}
	for i := 0; i < 100_000; i++ {
		check(expBracketMin * s.Float64())
	}
	for _, x := range []float64{0, math.Copysign(0, -1), -0x1p-1074, -1e-300, -0x1p-60,
		-math.Ln2 / 512, -math.Ln2 / 256, -math.Ln2, -89, -90,
		expBracketMin, math.Nextafter(expBracketMin, 0)} {
		check(x)
	}
}

func TestBinomialSlotPanics(t *testing.T) {
	for name, f := range map[string]func(){
		"NewSlotLaw(0)":      func() { NewSlotLaw(0) },
		"BinomialSlot(-1,·)": func() { law := NewSlotLaw(2); New(1).BinomialSlot(-1, &law) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
			}()
			f()
		}()
	}
}

// FuzzBinomialSlot extends the differential test to arbitrary seeds,
// counts and slot numbers.
func FuzzBinomialSlot(f *testing.F) {
	f.Add(uint64(1), uint32(500), uint16(16))
	f.Add(uint64(2), uint32(64), uint16(1))
	f.Add(uint64(3), uint32(50000), uint16(781))
	f.Add(uint64(4), uint32(0), uint16(1<<15-1))
	f.Fuzz(func(t *testing.T, seed uint64, n uint32, l uint16) {
		L := int(l)%(1<<15) + 1
		law := NewSlotLaw(L)
		ref, a, b := New(seed), New(seed), New(seed)
		for i := 0; i < 4; i++ {
			want := referenceBinomial(ref, int(n), 1/float64(L))
			if got := a.Binomial(int(n), 1/float64(L)); got != want {
				t.Fatalf("L=%d n=%d draw %d: Binomial = %d, reference = %d", L, n, i, got, want)
			}
			if got := b.BinomialSlot(int(n), &law); got != want {
				t.Fatalf("L=%d n=%d draw %d: BinomialSlot = %d, reference = %d", L, n, i, got, want)
			}
		}
		next := ref.Uint64()
		if a.Uint64() != next || b.Uint64() != next {
			t.Fatalf("L=%d n=%d: stream consumption differs from the reference", L, n)
		}
	})
}

func BenchmarkUint64(b *testing.B) {
	s := New(1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = s.Uint64()
	}
}

func BenchmarkIntn(b *testing.B) {
	s := New(1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = s.Intn(3000)
	}
}

// BenchmarkFillUint64 measures the bulk kernel per element, against
// BenchmarkUint64's per-call cost, over a frame-sized batch.
func BenchmarkFillUint64(b *testing.B) {
	s := New(1)
	buf := make([]uint64, 512)
	b.ReportAllocs()
	for i := 0; i < b.N; i += len(buf) {
		s.FillUint64(buf)
	}
}

func BenchmarkFillIntn(b *testing.B) {
	s := New(1)
	buf := make([]int32, 512)
	b.ReportAllocs()
	for i := 0; i < b.N; i += len(buf) {
		s.FillIntn(buf, 3000)
	}
}

// BenchmarkBinomialSlot draws over the law mix of a case-IV stat-mode
// Q-adaptive session: the (R, L) sequence a 50 000-tag Gen-2 inventory
// (InitialQ 4, C 0.3, MaxQ 15) visits, recorded once and replayed, one
// BinomialSlot per op.
func BenchmarkBinomialSlot(b *testing.B) {
	type draw struct{ n, L int32 }
	var mix []draw
	rec := New(1)
	laws := make([]SlotLaw, 1<<15+1)
	for L := 1; L < len(laws); L++ {
		laws[L] = NewSlotLaw(L)
	}
	active, qfp := 50000, 4.0
	for active > 0 {
		q := math.Round(qfp)
		frame := 1 << int(q)
		roundActive := active
		for slot := 0; slot < frame && active > 0 && math.Round(qfp) == q; slot++ {
			L := frame - slot
			mix = append(mix, draw{int32(roundActive), int32(L)})
			m := rec.BinomialSlot(roundActive, &laws[L])
			roundActive -= m
			switch {
			case m == 0:
				qfp = max(qfp-0.3, 0)
			case m == 1:
				active--
			default:
				qfp = min(qfp+0.3, 15)
			}
		}
	}
	s := New(2)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d := mix[i%len(mix)]
		binomialSink = s.BinomialSlot(int(d.n), &laws[d.L])
	}
}

// binomialSink keeps BenchmarkBinomialSlot's draws live.
var binomialSink int
