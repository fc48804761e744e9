package scenario

import (
	"context"
	"math"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/deploy"
	"repro/internal/prng"
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

// TestGeneratorPanicReachesCaller makes the arrival generator panic on
// its third batch at two workers: RunContext must panic on the caller's
// goroutine with the generator's value and stack, and the generator must
// be gone afterwards.
func TestGeneratorPanicReachesCaller(t *testing.T) {
	before := runtime.NumGoroutine()
	fills := 0
	fillHook = func() {
		if fills++; fills == 3 {
			panic("arrival draw failed")
		}
	}
	defer func() { fillHook = nil }()

	spec := smallSpec()
	spec.Workers = 2
	v := func() (v any) {
		defer func() { v = recover() }()
		RunContext(context.Background(), spec, Options{})
		return nil
	}()
	msg, _ := v.(string)
	if !strings.HasPrefix(msg, "arrival draw failed") || !strings.Contains(msg, "stack of the arrival generator") {
		t.Fatalf("recovered %v, want the generator's panic and stack", v)
	}
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > before; {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after the panic, %d before", runtime.NumGoroutine(), before)
		}
		time.Sleep(time.Millisecond)
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

// TestAddMatchesTwoCoverPath pins add's one-pass coverage to the two
// cover calls it replaces (push list at the float64 point, clear-list at
// the float32 point, uncovered when the push list is empty) on uniform
// points and on points placed at float32-rounding distance from range
// edges and cell borders, for the Table V floor and for ranges the
// rounding shift rivals or exceeds.
func TestAddMatchesTwoCoverPath(t *testing.T) {
	for _, tc := range []struct {
		name                string
		side, rng, cellSize float64
		readers             int
	}{
		{"table V", 100, 3, 3, 100},
		{"overlapping ranges", 100, 8, 8, 100},
		{"small range", 1000, 1e-3, 1000.0 / 64, 36},
		{"tiny range on a large floor", 1000, 1e-4, 1000.0 / 64, 36},
	} {
		t.Run(tc.name, func(t *testing.T) {
			floor := deploy.NewFloor(tc.side)
			floor.PlaceReadersGrid(tc.readers, tc.rng)
			cov := newCoverIndex(floor, tc.side, tc.cellSize)
			shift := tc.side * 0x1p-23
			var pts [][2]float64
			s := prng.New(3)
			for i := 0; i < 20000; i++ {
				pts = append(pts, [2]float64{s.Float64() * tc.side, s.Float64() * tc.side})
			}
			for _, r := range floor.Readers {
				ulp := float64(ulp32(max(r.Pos.X, r.Pos.Y) + r.Range))
				for a := 0; a < 32; a++ {
					theta := float64(a)*2*math.Pi/32 + 0.1
					for k := -8; k <= 8; k++ {
						for _, d := range []float64{r.Range + float64(k)*shift/4, r.Range + float64(k)*ulp/8, r.Range * (1 + float64(k)*1e-10)} {
							pts = append(pts, [2]float64{r.Pos.X + d*math.Cos(theta), r.Pos.Y + d*math.Sin(theta)})
						}
					}
				}
			}
			// Cell borders, each side of a border by fractions of a float32
			// ulp, beside a reader so the cell lists are not empty.
			for _, r := range floor.Readers {
				border := math.Ceil(r.Pos.X/tc.cellSize) * tc.cellSize
				ulp := float64(ulp32(border))
				for k := -8; k <= 8; k++ {
					x := border + float64(k)*ulp/8
					pts = append(pts, [2]float64{x, r.Pos.Y}, [2]float64{r.Pos.X, border + float64(k)*ulp/8})
				}
			}
			var settled, recomputed, crossed int
			for _, p := range pts {
				x, y := p[0], p[1]
				if x < 0 || y < 0 || x >= tc.side || y >= tc.side {
					continue
				}
				var b arrivalBatch
				b.add(cov, 0, 1, x, y)
				st := cov.stride
				push, clear := b.lists[:st], b.lists[st:2*st]

				wantPush := make([]int32, st-1)
				wantPush = wantPush[:cov.cover(wantPush, x, y)]
				if got := push[1 : 1+push[0]]; !slices.Equal(got, wantPush) {
					t.Fatalf("(%v, %v): push list %v, cover %v", x, y, got, wantPush)
				}
				if len(wantPush) == 0 {
					if clear[0] != uncovered {
						t.Fatalf("(%v, %v): uncovered tag has clear header %d", x, y, clear[0])
					}
					continue
				}
				x32, y32 := float64(float32(x)), float64(float32(y))
				wantClear := make([]int32, st-1)
				wantClear = wantClear[:cov.cover(wantClear, x32, y32)]
				if got := clear[1 : 1+clear[0]]; !slices.Equal(got, wantClear) {
					t.Fatalf("(%v, %v): clear-list %v, cover at float32 %v", x, y, got, wantClear)
				}
				if _, same := cov.coverPair(make([]int32, st-1), x, y); same {
					settled++
				} else {
					recomputed++
				}
				if int(x/tc.cellSize) != int(x32/tc.cellSize) || int(y/tc.cellSize) != int(y32/tc.cellSize) {
					crossed++
				}
			}
			t.Logf("%d settled, %d recomputed, %d crossing a cell border", settled, recomputed, crossed)
			if recomputed == 0 || crossed == 0 {
				t.Fatal("no point exercised the recomputation or a cell crossing")
			}
			if tc.rng > shift && settled == 0 {
				t.Fatal("no covered point was settled in one pass")
			}
			if tc.rng <= shift && settled != 0 {
				t.Fatalf("range %v within the rounding shift %v, yet %d points settled", tc.rng, shift, settled)
			}
		})
	}
}

// TestAddRecomputesAcrossCellBorder builds the case the cell check
// exists for: a point whose float32 rounding crosses into the next
// cell, and a reader that covers the rounded point but whose disc misses
// the point's own cell, so it is no candidate of the one-pass cover. The
// clear-list must still name it.
func TestAddRecomputesAcrossCellBorder(t *testing.T) {
	const side, rng, cs, y = 100.0, 3.0, 3.1, 50.0
	var x, x32 float64
	for cx := 1; cx < 32 && x32 == 0; cx++ {
		border := float64(cx) * cs
		p := math.Nextafter(border, 0)
		if q := float64(float32(p)); q > border && int(p/cs) != int(q/cs) {
			x, x32 = p, q
		}
	}
	if x32 == 0 {
		t.Fatal("no float32 rounding crosses a cell border")
	}
	right := math.Ceil(x/cs) * cs // the point's cell's right edge
	floor := deploy.NewFloor(side)
	floor.Readers = []deploy.Reader{
		{ID: 0, Pos: deploy.Point{X: x - 1, Y: y}, Range: rng},
		{ID: 1, Pos: deploy.Point{X: x32 + rng - (x32-right)/2, Y: y}, Range: rng},
	}
	cov := newCoverIndex(floor, side, cs)
	var b arrivalBatch
	b.add(cov, 0, 1, x, y)
	s := cov.stride
	push, clear := b.lists[1:1+b.lists[0]], b.lists[s+1:s+1+int(b.lists[s])]
	if !slices.Equal(push, []int32{0}) {
		t.Fatalf("push list %v, want [0]", push)
	}
	if !slices.Contains(clear, 1) {
		t.Fatalf("clear-list %v misses reader 1, which covers the float32 point", clear)
	}
}

// ulp32 is the spacing of float32 values just above v.
func ulp32(v float64) float32 {
	f := float32(v)
	return math.Nextafter32(f, float32(math.Inf(1))) - f
}
