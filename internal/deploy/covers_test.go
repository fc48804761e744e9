package deploy

import (
	"math"
	"testing"

	"repro/internal/prng"
)

// checkCovers fails if Covers disagrees with the Hypot definition it
// replaces.
func checkCovers(t testing.TB, r Reader, q Point) {
	t.Helper()
	want := r.Pos.Dist(q) <= r.Range
	if got := r.Covers(q); got != want {
		t.Fatalf("Covers(%v) with reader at %v range %v = %v, Dist says %v (dist %v)",
			q, r.Pos, r.Range, got, want, r.Pos.Dist(q))
	}
}

// TestCoversMatchesHypotRandom compares the verdicts on a million random
// points spread over [0, 2R] around readers of assorted ranges.
func TestCoversMatchesHypotRandom(t *testing.T) {
	src := prng.New(11)
	ranges := []float64{3, 6, 25, 0.001, 1e4}
	for i := 0; i < 1_000_000; i++ {
		rng := ranges[i%len(ranges)]
		if i%7 == 0 {
			rng = src.Float64() * 50
		}
		r := Reader{Pos: Point{X: src.Float64() * 100, Y: src.Float64() * 100}, Range: rng}
		q := Point{
			X: r.Pos.X + (2*src.Float64()-1)*2*rng,
			Y: r.Pos.Y + (2*src.Float64()-1)*2*rng,
		}
		checkCovers(t, r, q)
	}
}

// TestCoversMatchesHypotAtEdge places points within a few ulps of the
// range circle, along random directions: the band where the squared
// comparison must hand over to Hypot.
func TestCoversMatchesHypotAtEdge(t *testing.T) {
	src := prng.New(12)
	for i := 0; i < 20_000; i++ {
		r := Reader{Pos: Point{X: src.Float64() * 100, Y: src.Float64() * 100}, Range: []float64{3, 6, 25, 1e-3}[i%4]}
		theta := src.Float64() * 2 * math.Pi
		edge := Point{X: r.Pos.X + r.Range*math.Cos(theta), Y: r.Pos.Y + r.Range*math.Sin(theta)}
		for k := -8; k <= 8; k++ {
			// k ulps along the radius, and k ulps on each coordinate.
			d := r.Range * (1 + float64(k)*0x1p-52)
			checkCovers(t, r, Point{X: r.Pos.X + d*math.Cos(theta), Y: r.Pos.Y + d*math.Sin(theta)})
			checkCovers(t, r, Point{X: stepULPs(edge.X, k), Y: stepULPs(edge.Y, k)})
			checkCovers(t, r, Point{X: stepULPs(edge.X, k), Y: stepULPs(edge.Y, -k)})
		}
	}
}

// stepULPs moves v by k representable values (negative k steps down).
func stepULPs(v float64, k int) float64 {
	dir := math.Inf(1)
	if k < 0 {
		dir, k = math.Inf(-1), -k
	}
	for ; k > 0; k-- {
		v = math.Nextafter(v, dir)
	}
	return v
}

// TestCoversExtremeRanges covers the fallback cases: zero, subnormal,
// tiny and huge ranges, infinities, NaNs and overflowing offsets.
func TestCoversExtremeRanges(t *testing.T) {
	inf, nan := math.Inf(1), math.NaN()
	ranges := []float64{0, -1, math.SmallestNonzeroFloat64, 1e-320, 1e-300, 1e-162, 1e-154,
		1, 1e150, 1e154, 1.3407807929942596e154, 1e155, 1e300, math.MaxFloat64, inf, nan}
	scales := []float64{0, 0.5, 1 - 1e-12, 1, 1 + 1e-12, 2, 1e10}
	for _, rng := range ranges {
		for _, pos := range []Point{{0, 0}, {1, -1}, {1e200, 1e200}} {
			r := Reader{Pos: pos, Range: rng}
			for _, s := range scales {
				for _, dir := range []Point{{1, 0}, {0.6, 0.8}, {-0.7071067811865476, 0.7071067811865476}} {
					checkCovers(t, r, Point{X: pos.X + s*rng*dir.X, Y: pos.Y + s*rng*dir.Y})
				}
			}
			for _, q := range []Point{{inf, 0}, {0, -inf}, {nan, 0}, {inf, nan}, {1e200, -1e200}, {-1e300, 1e300}} {
				checkCovers(t, r, q)
			}
		}
	}
}

// FuzzCovers checks Covers against the Hypot definition on arbitrary
// reader positions, ranges and points.
func FuzzCovers(f *testing.F) {
	f.Add(10.0, 10.0, 3.0, 13.0, 10.0)
	f.Add(0.0, 0.0, 1e-300, 1e-300, 0.0)
	f.Add(0.0, 0.0, 1e300, 1e300, 0.0)
	f.Add(1.0, 2.0, math.Inf(1), 3.0, 4.0)
	f.Add(1e154, 0.0, 1e154, -1e154, 1e154)
	f.Fuzz(func(t *testing.T, px, py, rng, qx, qy float64) {
		checkCovers(t, Reader{Pos: Point{X: px, Y: py}, Range: rng}, Point{X: qx, Y: qy})
	})
}
