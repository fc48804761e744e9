package main

import (
	"context"
	"math"
	"testing"
	"time"
)

func seq(n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = float64(i + 1)
	}
	return out
}

func TestPercentileNearestRank(t *testing.T) {
	xs := seq(10) // 1..10
	for _, c := range []struct{ p, want float64 }{
		{0, 1}, {10, 1}, {11, 2}, {50, 5}, {51, 6}, {90, 9}, {99, 10}, {100, 10},
	} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("p%v of 1..10 = %v, want %v", c.p, got, c.want)
		}
	}
	if !math.IsNaN(percentile(nil, 50)) {
		t.Error("percentile of no samples should be NaN")
	}
}

// TestTailKeepsTenBeyond pins the reporting rule: a percentile is
// reported only when at least ten samples rank above it, so p99 needs
// 1000 samples and p99.9 needs 10000.
func TestTailKeepsTenBeyond(t *testing.T) {
	for _, c := range []struct {
		n     int
		wantP float64
	}{
		{10000, 99.9},
		{9999, 99},
		{1000, 99},
		{999, 90},
		{100, 90},
		{99, 50},
		{20, 50},
		{19, 100},
		{1, 100},
	} {
		xs := seq(c.n)
		p, v := tail(xs)
		if p != c.wantP {
			t.Errorf("n=%d: tail percentile %v, want %v", c.n, p, c.wantP)
			continue
		}
		if p < 100 {
			rank := int(v)
			if beyond := c.n - rank; beyond < minBeyond {
				t.Errorf("n=%d: p%v has %d samples beyond it", c.n, p, beyond)
			}
			if v != percentile(xs, p) {
				t.Errorf("n=%d: tail value %v is not the nearest-rank p%v", c.n, v, p)
			}
		} else if v != float64(c.n) {
			t.Errorf("n=%d: fallback tail %v, want the maximum", c.n, v)
		}
	}
}

// sleeper is a workload whose ops only wait.
type sleeper struct{}

func (sleeper) name() string                                   { return "sleeper" }
func (sleeper) setup(context.Context) error                    { return nil }
func (sleeper) clients() int                                   { return 2 }
func (sleeper) check(context.Context, *tracer) (int, []string) { return 0, nil }
func (sleeper) outputs() *outputs                              { return &outputs{} }
func (sleeper) close()                                         {}

func (sleeper) op(context.Context, spanRef, int) error {
	time.Sleep(time.Millisecond)
	return nil
}

// TestMeasureReadsMemoryAtFixedOp checks that the window takes its memory
// reading when a reachable op count ends, and none when the window ends
// first.
func TestMeasureReadsMemoryAtFixedOp(t *testing.T) {
	ctx := context.Background()
	if m := measure(ctx, sleeper{}, 20*time.Millisecond, nil, 2); m.attempted < 2 || m.rss <= 0 {
		t.Errorf("%d ops, reading %d bytes: want a reading at op 2", m.attempted, m.rss)
	}
	if m := measure(ctx, sleeper{}, 20*time.Millisecond, nil, 1<<20); m.rss != 0 {
		t.Errorf("%d ops, reading %d bytes: want none for an op the window never reaches", m.attempted, m.rss)
	}
}

func TestDeriveSeparatesStreams(t *testing.T) {
	seen := map[uint64]bool{}
	for seed := uint64(0); seed < 4; seed++ {
		for stream := uint64(0); stream < 4; stream++ {
			for i := uint64(0); i < 64; i++ {
				v := derive(seed, stream, i)
				if seen[v] {
					t.Fatalf("derive(%d,%d,%d) repeats an earlier value", seed, stream, i)
				}
				seen[v] = true
			}
		}
	}
	if derive(7, 1, 3) != derive(7, 1, 3) {
		t.Fatal("derive is not a pure function")
	}
}
