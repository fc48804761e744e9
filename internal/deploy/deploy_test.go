package deploy

import (
	"math"
	"testing"

	"repro/internal/aloha"
	"repro/internal/detect"
	"repro/internal/prng"
	"repro/internal/tagmodel"
	"repro/internal/timing"
)

func TestPointDist(t *testing.T) {
	if d := (Point{0, 0}).Dist(Point{3, 4}); d != 5 {
		t.Errorf("Dist = %v", d)
	}
}

func TestReaderCovers(t *testing.T) {
	r := Reader{Pos: Point{10, 10}, Range: 3}
	if !r.Covers(Point{12, 10}) || !r.Covers(Point{10, 13}) {
		t.Error("in-range point not covered")
	}
	if r.Covers(Point{14, 10}) {
		t.Error("out-of-range point covered")
	}
}

func TestPlaceReadersGridTableV(t *testing.T) {
	// The paper's setup: 100 readers over 100 m × 100 m with 3 m range.
	f := NewFloor(100)
	f.PlaceReadersGrid(100, 3)
	if len(f.Readers) != 100 {
		t.Fatalf("readers = %d", len(f.Readers))
	}
	for _, r := range f.Readers {
		if r.Pos.X < 0 || r.Pos.X > 100 || r.Pos.Y < 0 || r.Pos.Y > 100 {
			t.Fatalf("reader %d outside the floor: %+v", r.ID, r.Pos)
		}
		if r.Range != 3 {
			t.Fatalf("reader range = %v", r.Range)
		}
	}
	// Grid spacing 10 m with 3 m range covers π·9/100 ≈ 28% of area.
	rng := prng.New(1)
	pop := tagmodel.NewPopulation(2000, 64, rng)
	f.PlaceTags(pop, rng)
	cov := f.Coverage()
	if math.Abs(cov-0.28) > 0.05 {
		t.Errorf("coverage = %v, want ≈ π·3²/10² ≈ 0.28", cov)
	}
}

func TestPlaceReadersGridRejectsNonSquare(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("non-square reader count accepted")
		}
	}()
	NewFloor(100).PlaceReadersGrid(10, 3)
}

func TestGridIndexMatchesBruteForce(t *testing.T) {
	rng := prng.New(2)
	f := NewFloor(50)
	f.PlaceReadersRandom(20, 5, rng)
	pop := tagmodel.NewPopulation(500, 64, rng)
	f.PlaceTags(pop, rng)
	for _, r := range f.Readers {
		fast := map[int]bool{}
		for _, tag := range f.TagsInRange(r) {
			fast[tag.Index] = true
		}
		slow := map[int]bool{}
		for _, pt := range f.Tags {
			if r.Covers(pt.Pos) {
				slow[pt.Tag.Index] = true
			}
		}
		if len(fast) != len(slow) {
			t.Fatalf("reader %d: grid %d vs brute force %d", r.ID, len(fast), len(slow))
		}
		for idx := range slow {
			if !fast[idx] {
				t.Fatalf("reader %d: grid missed tag %d", r.ID, idx)
			}
		}
	}
}

func TestRunSequentialIdentifiesCoveredTags(t *testing.T) {
	rng := prng.New(3)
	f := NewFloor(100)
	f.PlaceReadersGrid(100, 3)
	pop := tagmodel.NewPopulation(1000, 64, rng)
	f.PlaceTags(pop, rng)

	det := detect.NewQCD(8, 64)
	tmdl := timing.Model{TauMicros: 1}
	total, identified := f.RunSequential(func(sub tagmodel.Population) float64 {
		return aloha.Exact(sub, det, tmdl, aloha.Options{}).FSA(aloha.NewFixed(maxInt(1, len(sub)))).TimeMicros
	})
	if total <= 0 {
		t.Error("no airtime spent")
	}

	// Every covered tag must be identified; no uncovered tag can be.
	for _, pt := range f.Tags {
		covered := false
		for _, r := range f.Readers {
			if r.Covers(pt.Pos) {
				covered = true
				break
			}
		}
		if covered != pt.Tag.Identified {
			t.Fatalf("tag %d covered=%v identified=%v", pt.Tag.Index, covered, pt.Tag.Identified)
		}
	}
	wantIdentified := 0
	for _, pt := range f.Tags {
		if pt.Tag.Identified {
			wantIdentified++
		}
	}
	if identified != wantIdentified {
		t.Errorf("identified = %d, recount = %d", identified, wantIdentified)
	}
}

func TestTagIdentifiedOnceAcrossReaders(t *testing.T) {
	// Overlapping readers: a tag identified by the first keeps silent for
	// the second, so sessions see shrinking sub-populations.
	rng := prng.New(4)
	f := NewFloor(10)
	f.Readers = []Reader{
		{ID: 0, Pos: Point{5, 5}, Range: 6},
		{ID: 1, Pos: Point{5, 5}, Range: 6}, // same coverage
	}
	pop := tagmodel.NewPopulation(50, 64, rng)
	f.PlaceTags(pop, rng)

	det := detect.NewQCD(8, 64)
	tmdl := timing.Model{TauMicros: 1}
	sessions := 0
	f.RunSequential(func(sub tagmodel.Population) float64 {
		sessions++
		if sessions == 2 {
			t.Fatalf("second reader saw %d tags, want none left", len(sub))
		}
		return aloha.Exact(sub, det, tmdl, aloha.Options{}).FSA(aloha.NewFixed(len(sub))).TimeMicros
	})
	if sessions != 1 {
		t.Errorf("sessions = %d", sessions)
	}
}

func TestFloorValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("non-positive floor accepted")
		}
	}()
	NewFloor(0)
}

func TestCoverageEmpty(t *testing.T) {
	if NewFloor(10).Coverage() != 0 {
		t.Error("empty floor coverage != 0")
	}
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
