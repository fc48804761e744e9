package scenario

import (
	"context"
	"math"
	"slices"
	"testing"

	"repro/internal/deploy"
)

// TestClearListIsRoundedPositionCoverage pins the admit/depart coverage
// mismatch. A tag is pushed to the readers covering its drawn float64
// position, but departure clears seen bits for the readers covering that
// position rounded to float32. The test builds a point one reader covers
// at float64 but not at float32, and checks that the recorded clear-list
// is exactly the float32 recomputation, not the push list.
func TestClearListIsRoundedPositionCoverage(t *testing.T) {
	spec := smallSpec().WithDefaults()
	floor := deploy.NewFloor(spec.SideMetres)
	floor.PlaceReadersGrid(spec.Readers, spec.ReadRangeMetres)
	cov := newCoverIndex(floor, spec.SideMetres, spec.ReadRangeMetres)

	x, y, reader, ok := edgePoint(floor, spec.SideMetres)
	if !ok {
		t.Fatal("no point covered at float64 but not at float32")
	}
	var b arrivalBatch
	b.add(cov, 0, 1, x, y)
	s := cov.stride
	push, clear := b.lists[:s], b.lists[s:2*s]

	want := make([]int32, s-1)
	want = want[:cov.cover(want, float64(float32(x)), float64(float32(y)))]
	if got := clear[1 : 1+clear[0]]; !slices.Equal(got, want) {
		t.Fatalf("clear-list %v, float32 recomputation %v", got, want)
	}
	if !slices.Contains(push[1:1+push[0]], reader) {
		t.Fatalf("reader %d covers the float64 position but is not on the push list %v", reader, push[1:1+push[0]])
	}
	if slices.Contains(want, reader) {
		t.Fatalf("reader %d still covers the float32 position", reader)
	}
}

// TestCancelledRunStopsGenerator cancels before the first epoch, when
// the first boundary's arrivals are already in flight on the generator:
// the run must return its empty partial result, and stop must collect
// the batch and the goroutine instead of hanging.
func TestCancelledRunStopsGenerator(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	spec := smallSpec()
	spec.Workers = 2
	res, err := RunContext(ctx, spec, Options{})
	if err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res.Epochs != 0 || res.Arrived != 0 {
		t.Fatalf("cancelled before the first epoch, got %+v", res)
	}
}

// edgePoint walks the range circles of the floor's readers for an
// in-arena point that a reader covers at float64 but not once rounded to
// float32.
func edgePoint(floor *deploy.Floor, side float64) (x, y float64, reader int32, ok bool) {
	for _, r := range floor.Readers {
		for k := 0; k < 256; k++ {
			theta := float64(k) * 2 * math.Pi / 256
			x := r.Pos.X + r.Range*math.Cos(theta)
			y := r.Pos.Y + r.Range*math.Sin(theta)
			for !r.Covers(deploy.Point{X: x, Y: y}) {
				x = math.Nextafter(x, r.Pos.X)
				y = math.Nextafter(y, r.Pos.Y)
			}
			if x < 0 || y < 0 || x >= side || y >= side {
				continue
			}
			if !r.Covers(deploy.Point{X: float64(float32(x)), Y: float64(float32(y))}) {
				return x, y, int32(r.ID), true
			}
		}
	}
	return 0, 0, 0, false
}
