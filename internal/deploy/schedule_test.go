package deploy

import (
	"testing"

	"repro/internal/aloha"
	"repro/internal/detect"
	"repro/internal/prng"
	"repro/internal/tagmodel"
	"repro/internal/timing"
)

func paperFloorWithTags(n int, seed uint64) (*Floor, tagmodel.Population) {
	rng := prng.New(seed)
	f := NewFloor(100)
	f.PlaceReadersGrid(100, 3)
	pop := tagmodel.NewPopulation(n, 64, rng)
	f.PlaceTags(pop, rng)
	return f, pop
}

func TestInterferenceGraphSymmetric(t *testing.T) {
	f, _ := paperFloorWithTags(10, 1)
	adj := f.InterferenceGraph(15)
	for i, ns := range adj {
		for _, j := range ns {
			found := false
			for _, k := range adj[j] {
				if k == i {
					found = true
				}
			}
			if !found {
				t.Fatalf("edge %d-%d not symmetric", i, j)
			}
		}
	}
}

func TestInterferenceGraphRadius(t *testing.T) {
	f, _ := paperFloorWithTags(1, 2)
	// Grid pitch is 10 m: radius 9 yields no edges, radius 10 connects
	// the 4-neighbourhood, radius 15 adds diagonals.
	if adj := f.InterferenceGraph(9); countEdges(adj) != 0 {
		t.Errorf("radius 9: %d edges, want 0", countEdges(adj))
	}
	adj10 := f.InterferenceGraph(10)
	if countEdges(adj10) != 360 { // 180 grid-neighbour pairs, both directions
		t.Errorf("radius 10: %d directed edges, want 360", countEdges(adj10))
	}
	defer func() {
		if recover() == nil {
			t.Fatal("negative radius accepted")
		}
	}()
	f.InterferenceGraph(-1)
}

func countEdges(adj [][]int) int {
	n := 0
	for _, e := range adj {
		n += len(e)
	}
	return n
}

func TestColoringIsProper(t *testing.T) {
	f, _ := paperFloorWithTags(1, 3)
	for _, radius := range []float64{10, 15, 25} {
		adj := f.InterferenceGraph(radius)
		colors, count := ColorReaders(adj)
		if count < 1 {
			t.Fatalf("radius %v: %d colors", radius, count)
		}
		for i, ns := range adj {
			for _, j := range ns {
				if colors[i] == colors[j] {
					t.Fatalf("radius %v: adjacent readers %d,%d share color %d", radius, i, j, colors[i])
				}
			}
		}
	}
}

func TestColoringGridUsesFewColors(t *testing.T) {
	f, _ := paperFloorWithTags(1, 4)
	_, count := ColorReaders(f.InterferenceGraph(10))
	// A grid 4-neighbourhood is bipartite: greedy needs at most 3 colors.
	if count > 3 {
		t.Errorf("grid colored with %d colors", count)
	}
}

func TestRunScheduledMatchesSequentialCoverage(t *testing.T) {
	det := detect.NewQCD(8, 64)
	tm := timing.Default
	session := func(sub tagmodel.Population) float64 {
		return aloha.Exact(sub, det, tm, aloha.Options{}).FSA(aloha.NewFixed(maxInt(1, len(sub)))).TimeMicros
	}

	f1, _ := paperFloorWithTags(800, 5)
	res := f1.RunScheduled(15, session)

	f2, _ := paperFloorWithTags(800, 5)
	seqMicros, seqIdent := f2.RunSequential(session)

	if res.Identified != seqIdent {
		t.Errorf("scheduled identified %d, sequential %d", res.Identified, seqIdent)
	}
	if res.MakespanMicros >= seqMicros {
		t.Errorf("schedule makespan %.0f not below sequential %.0f", res.MakespanMicros, seqMicros)
	}
	if res.Speedup() < 2 {
		t.Errorf("speedup %.2f, expected real parallelism on a 100-reader floor", res.Speedup())
	}
	if res.Colors < 2 {
		t.Errorf("colors = %d", res.Colors)
	}
}

func TestRunUnscheduledJamsCoveredTags(t *testing.T) {
	// With a 20 m carrier radius on a 10 m reader grid, every point of
	// the floor interior is inside at least one *other* reader's carrier,
	// so an unscheduled all-on activation jams essentially every covered
	// tag; the scheduled run reads them all.
	det := detect.NewQCD(8, 64)
	tm := timing.Default
	session := func(sub tagmodel.Population) float64 {
		return aloha.Exact(sub, det, tm, aloha.Options{}).FSA(aloha.NewFixed(maxInt(1, len(sub)))).TimeMicros
	}
	f1, _ := paperFloorWithTags(600, 9)
	un := f1.RunUnscheduled(20, session)

	f2, _ := paperFloorWithTags(600, 9)
	sched := f2.RunScheduled(20, session)

	if un.Jammed == 0 {
		t.Fatal("no tags jammed under all-on activation (premise broken)")
	}
	if un.Identified >= sched.Identified {
		t.Errorf("unscheduled read %d ≥ scheduled %d", un.Identified, sched.Identified)
	}
	if un.Identified+un.Jammed < sched.Identified {
		t.Errorf("identified+jammed (%d+%d) below scheduled coverage %d",
			un.Identified, un.Jammed, sched.Identified)
	}
}

func TestRunUnscheduledValidation(t *testing.T) {
	f, _ := paperFloorWithTags(5, 10)
	defer func() {
		if recover() == nil {
			t.Fatal("negative carrier radius accepted")
		}
	}()
	f.RunUnscheduled(-1, func(tagmodel.Population) float64 { return 0 })
}

func TestRunScheduledNoInterference(t *testing.T) {
	// Radius below the grid pitch: everything is one color; the makespan
	// is the slowest single reader.
	det := detect.NewQCD(8, 64)
	tm := timing.Default
	f, _ := paperFloorWithTags(300, 6)
	res := f.RunScheduled(5, func(sub tagmodel.Population) float64 {
		return aloha.Exact(sub, det, tm, aloha.Options{}).FSA(aloha.NewFixed(maxInt(1, len(sub)))).TimeMicros
	})
	if res.Colors != 1 {
		t.Errorf("colors = %d, want 1", res.Colors)
	}
	if res.MakespanMicros > res.TotalAirtimeMicros/3 {
		t.Errorf("makespan %.0f vs total %.0f: expected heavy overlap", res.MakespanMicros, res.TotalAirtimeMicros)
	}
}

func TestZeroReaders(t *testing.T) {
	rng := prng.New(11)
	f := NewFloor(100)
	pop := tagmodel.NewPopulation(50, 64, rng)
	f.PlaceTags(pop, rng)

	adj := f.InterferenceGraph(15)
	if len(adj) != 0 {
		t.Fatalf("interference graph has %d nodes for 0 readers", len(adj))
	}
	colors, count := ColorReaders(adj)
	if len(colors) != 0 || count != 0 {
		t.Errorf("ColorReaders(empty) = %v, %d", colors, count)
	}

	ran := false
	session := func(sub tagmodel.Population) float64 { ran = true; return 1 }
	res := f.RunScheduled(15, session)
	if ran {
		t.Error("a session ran with no readers")
	}
	if res.Colors != 0 || res.Identified != 0 || res.MakespanMicros != 0 || res.TotalAirtimeMicros != 0 {
		t.Errorf("scheduled result = %+v, want all zero", res)
	}
	if res.Speedup() != 1 {
		t.Errorf("zero-makespan speedup = %v, want 1", res.Speedup())
	}
	un := f.RunUnscheduled(20, session)
	if un.Identified != 0 || un.Jammed != 0 || un.MakespanMicros != 0 {
		t.Errorf("unscheduled result = %+v, want all zero", un)
	}
	if micros, ident := f.RunSequential(session); micros != 0 || ident != 0 {
		t.Errorf("sequential = %v, %d, want 0, 0", micros, ident)
	}
}

func TestReaderRangeLargerThanArena(t *testing.T) {
	// One reader in the middle of a 10 m floor with a 200 m range: its
	// disc swallows the whole arena, so a single session must identify
	// every tag and the grid index must not miss any cell.
	rng := prng.New(12)
	f := NewFloor(10)
	f.Readers = append(f.Readers, Reader{ID: 0, Pos: Point{X: 5, Y: 5}, Range: 200})
	pop := tagmodel.NewPopulation(120, 64, rng)
	f.PlaceTags(pop, rng)

	if got := len(f.TagsInRange(f.Readers[0])); got != 120 {
		t.Fatalf("oversized range covers %d of 120 tags", got)
	}
	if cov := f.Coverage(); cov != 1 {
		t.Errorf("coverage = %v, want 1", cov)
	}

	det := detect.NewQCD(8, 64)
	session := func(sub tagmodel.Population) float64 {
		return aloha.Exact(sub, det, timing.Default, aloha.Options{}).FSA(aloha.NewFixed(maxInt(1, len(sub)))).TimeMicros
	}
	res := f.RunScheduled(15, session)
	if res.Identified != 120 {
		t.Errorf("identified %d of 120", res.Identified)
	}
	if res.Colors != 1 {
		t.Errorf("colors = %d, want 1 for a single reader", res.Colors)
	}
	if res.MakespanMicros != res.TotalAirtimeMicros {
		t.Errorf("single reader: makespan %v != total %v", res.MakespanMicros, res.TotalAirtimeMicros)
	}
}

func TestOversizedRangeGridCoversWholeArena(t *testing.T) {
	// Four gridded readers whose ranges each dwarf the arena: every
	// reader covers every tag, the interference graph is complete at any
	// radius >= the grid pitch, and a schedule still reads everything
	// exactly once.
	rng := prng.New(13)
	f := NewFloor(10)
	f.PlaceReadersGrid(4, 200)
	pop := tagmodel.NewPopulation(60, 64, rng)
	f.PlaceTags(pop, rng)

	for _, r := range f.Readers {
		if got := len(f.TagsInRange(r)); got != 60 {
			t.Fatalf("reader %d covers %d of 60 tags", r.ID, got)
		}
	}
	adj := f.InterferenceGraph(200)
	colors, count := ColorReaders(adj)
	if count != 4 {
		t.Errorf("complete K4 colored with %d colors, want 4", count)
	}
	seen := map[int]bool{}
	for _, c := range colors {
		if seen[c] {
			t.Errorf("complete graph reused color %d", c)
		}
		seen[c] = true
	}

	det := detect.NewQCD(8, 64)
	res := f.RunScheduled(200, func(sub tagmodel.Population) float64 {
		return aloha.Exact(sub, det, timing.Default, aloha.Options{}).FSA(aloha.NewFixed(maxInt(1, len(sub)))).TimeMicros
	})
	if res.Identified != 60 {
		t.Errorf("identified %d of 60", res.Identified)
	}
}
