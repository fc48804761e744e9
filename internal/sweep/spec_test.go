package sweep

import (
	"encoding/json"
	"math"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"repro/internal/sim"
)

func baseCfg() sim.Config {
	return sim.Config{Tags: 20, Seed: 1, Rounds: 2, Algorithm: sim.AlgFSA, FrameSize: 16, Detector: sim.DetQCD}
}

func TestExpandOrderAndLabels(t *testing.T) {
	s := Spec{
		Base: baseCfg(),
		Axes: []Axis{
			{Field: FieldStrength, Ints: []int{4, 8}},
			{Field: FieldDetector, Strings: []string{sim.DetQCD, sim.DetCRCCD}},
		},
	}
	cells, err := s.Expand()
	if err != nil {
		t.Fatalf("Expand: %v", err)
	}
	wantLabels := []string{
		"strength=4 detector=qcd",
		"strength=4 detector=crccd",
		"strength=8 detector=qcd",
		"strength=8 detector=crccd",
	}
	if len(cells) != len(wantLabels) {
		t.Fatalf("got %d cells, want %d", len(cells), len(wantLabels))
	}
	for i, c := range cells {
		if c.Label != wantLabels[i] {
			t.Errorf("cell %d label = %q, want %q", i, c.Label, wantLabels[i])
		}
		if c.Index != i {
			t.Errorf("cell %d carries index %d", i, c.Index)
		}
		if c.Config.Workers != 0 {
			t.Errorf("cell %d config not canonical: Workers=%d", i, c.Config.Workers)
		}
	}
	if cells[1].Config.Strength != 4 || cells[1].Config.Detector != sim.DetCRCCD {
		t.Errorf("cell 1 config = strength %d detector %q", cells[1].Config.Strength, cells[1].Config.Detector)
	}
}

// TestModeAxis pins the mode grid dimension: exact and stat cells of
// the same workload expand side by side with distinct canonical
// configurations (exact's canonical Mode spelling is the empty string),
// so the result cache can never serve one mode's aggregate for the
// other.
func TestModeAxis(t *testing.T) {
	s := Spec{
		Base: baseCfg(),
		Axes: []Axis{{Field: FieldMode, Strings: []string{sim.ModeExact, sim.ModeStat}}},
	}
	cells, err := s.Expand()
	if err != nil {
		t.Fatalf("Expand: %v", err)
	}
	if len(cells) != 2 {
		t.Fatalf("got %d cells, want 2", len(cells))
	}
	if cells[0].Label != "mode=exact" || cells[1].Label != "mode=stat" {
		t.Errorf("labels = %q, %q", cells[0].Label, cells[1].Label)
	}
	if cells[0].Config.Mode != "" {
		t.Errorf("exact cell canonical Mode = %q, want empty", cells[0].Config.Mode)
	}
	if cells[1].Config.Mode != sim.ModeStat {
		t.Errorf("stat cell Mode = %q", cells[1].Config.Mode)
	}
	if reflect.DeepEqual(cells[0].Config, cells[1].Config) {
		t.Error("exact and stat cells canonicalised to the same config")
	}
	// A mode axis over an algorithm stat mode cannot run fails expansion
	// at the offending cell rather than at run time.
	bad := Spec{
		Base: baseCfg(),
		Axes: []Axis{
			{Field: FieldAlgorithm, Strings: []string{sim.AlgFSA, sim.AlgBT}},
			{Field: FieldMode, Strings: []string{sim.ModeExact, sim.ModeStat}},
		},
	}
	if _, err := bad.Expand(); err == nil || !strings.Contains(err.Error(), "stat mode") {
		t.Errorf("bt+stat cell expanded without error (err=%v)", err)
	}
}

func TestExpandDeterministic(t *testing.T) {
	s := Spec{
		Base: baseCfg(),
		Axes: []Axis{
			{Field: FieldCase, Cases: []Case{{Name: "I", Tags: 10, Frame: 16}, {Name: "II", Tags: 30, Frame: 16}}},
			{Field: FieldStrength, Ints: []int{4, 8, 16}},
			{Field: FieldSeed, Seeds: []uint64{1, 2}},
		},
	}
	a, err := s.Expand()
	if err != nil {
		t.Fatalf("Expand: %v", err)
	}
	b, err := s.Expand()
	if err != nil {
		t.Fatalf("Expand (again): %v", err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("two expansions of the same spec differ")
	}
	if len(a) != 12 {
		t.Fatalf("got %d cells, want 12", len(a))
	}
	if a[0].Config.Tags != 10 || a[0].Config.FrameSize != 16 {
		t.Errorf("case axis not applied: tags=%d frame=%d", a[0].Config.Tags, a[0].Config.FrameSize)
	}
}

func TestExpandRanges(t *testing.T) {
	arith := Axis{Field: FieldTags, Range: &Range{From: 10, To: 30, Step: 10}}
	if got := arith.coords(); !reflect.DeepEqual(got, []string{"10", "20", "30"}) {
		t.Errorf("arithmetic range coords = %v", got)
	}
	geom := Axis{Field: FieldTags, Range: &Range{From: 16, To: 128, Mul: 2}}
	if got := geom.coords(); !reflect.DeepEqual(got, []string{"16", "32", "64", "128"}) {
		t.Errorf("geometric range coords = %v", got)
	}
}

func TestValidateRejects(t *testing.T) {
	cases := []struct {
		name string
		spec Spec
		want string
	}{
		{"duplicate axis", Spec{Base: baseCfg(), Axes: []Axis{
			{Field: FieldTags, Ints: []int{1}}, {Field: FieldTags, Ints: []int{2}},
		}}, "duplicate"},
		{"unknown field", Spec{Base: baseCfg(), Axes: []Axis{
			{Field: "bogus", Ints: []int{1}},
		}}, "unknown"},
		{"two sources", Spec{Base: baseCfg(), Axes: []Axis{
			{Field: FieldTags, Ints: []int{1}, Range: &Range{From: 1, To: 2}},
		}}, "exactly one"},
		{"strings on int field", Spec{Base: baseCfg(), Axes: []Axis{
			{Field: FieldTags, Strings: []string{"x"}},
		}}, "ints"},
		{"seeds on non-seed field", Spec{Base: baseCfg(), Axes: []Axis{
			{Field: FieldFrame, Seeds: []uint64{1}},
		}}, "ints or range"},
		{"over cap", Spec{Base: baseCfg(), MaxCells: 4, Axes: []Axis{
			{Field: FieldTags, Range: &Range{From: 1, To: 10}},
		}}, "above the cap"},
		{"step and mul", Spec{Base: baseCfg(), Axes: []Axis{
			{Field: FieldTags, Range: &Range{From: 1, To: 8, Step: 2, Mul: 2}},
		}}, "both"},
		{"negative cell workers", Spec{Base: baseCfg(), CellWorkers: -1}, "cell_workers"},
	}
	for _, tc := range cases {
		err := tc.spec.Validate()
		if err == nil {
			t.Errorf("%s: Validate accepted the spec", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}
}

func TestExpandRejectsInvalidCell(t *testing.T) {
	s := Spec{
		Base: baseCfg(),
		Axes: []Axis{{Field: FieldTags, Ints: []int{10, -5}}},
	}
	if _, err := s.Expand(); err == nil {
		t.Fatal("Expand accepted a cell with negative tags")
	}
}

func TestCellCountOverflowGuard(t *testing.T) {
	s := Spec{
		Base:     baseCfg(),
		MaxCells: HardMaxCells,
		Axes: []Axis{
			{Field: FieldTags, Range: &Range{From: 1, To: 300}},
			{Field: FieldFrame, Range: &Range{From: 1, To: 300}},
		},
	}
	if _, err := s.CellCount(); err == nil {
		t.Fatal("CellCount accepted a grid beyond the hard cap")
	}
}

func TestNoAxesExpandsToBase(t *testing.T) {
	s := Spec{Base: baseCfg()}
	cells, err := s.Expand()
	if err != nil {
		t.Fatalf("Expand: %v", err)
	}
	if len(cells) != 1 {
		t.Fatalf("got %d cells, want 1", len(cells))
	}
	want := baseCfg().Canonical()
	if !reflect.DeepEqual(cells[0].Config, want) {
		t.Errorf("cell config = %+v, want canonical base %+v", cells[0].Config, want)
	}
}

func TestSpecJSONRoundTrip(t *testing.T) {
	s := Spec{
		Name: "fig5",
		Base: baseCfg(),
		Axes: []Axis{
			{Field: FieldCase, Cases: []Case{{Name: "I", Tags: 10}}},
			{Field: FieldStrength, Ints: []int{4, 8, 16}},
		},
		CellWorkers: 2,
	}
	b, err := json.Marshal(s)
	if err != nil {
		t.Fatalf("Marshal: %v", err)
	}
	var back Spec
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatalf("Unmarshal: %v", err)
	}
	ca, err := s.Expand()
	if err != nil {
		t.Fatalf("Expand: %v", err)
	}
	cb, err := back.Expand()
	if err != nil {
		t.Fatalf("Expand (round-tripped): %v", err)
	}
	if !reflect.DeepEqual(ca, cb) {
		t.Fatal("round-tripped spec expands differently")
	}
}

// loopValues is the progression built term by term, the reference the
// closed-form count and values must match on ranges too small to
// overflow.
func loopValues(r Range) []int {
	var out []int
	if r.Mul > 1 {
		for v := r.From; v <= r.To; v *= r.Mul {
			out = append(out, v)
		}
		return out
	}
	for v := r.From; v <= r.To; v += max(r.Step, 1) {
		out = append(out, v)
	}
	return out
}

func TestRangeCountMatchesLoop(t *testing.T) {
	var ranges []Range
	for from := -6; from <= 6; from++ {
		for to := from; to <= from+40; to++ {
			for _, step := range []int{0, 1, 2, 3, 7} {
				ranges = append(ranges, Range{From: from, To: to, Step: step})
			}
			if from >= 1 {
				for _, mul := range []int{2, 3, 5} {
					ranges = append(ranges, Range{From: from, To: to, Mul: mul})
				}
			}
		}
	}
	for _, r := range ranges {
		if err := r.validate(); err != nil {
			t.Fatalf("%+v: %v", r, err)
		}
		want := loopValues(r)
		if got := r.count(); got != len(want) {
			t.Fatalf("%+v: count %d, loop %d", r, got, len(want))
		}
		if got := r.values(); !reflect.DeepEqual(got, want) {
			t.Fatalf("%+v: values %v, loop %v", r, got, want)
		}
	}
}

// TestHostileRangesCountWithoutBuilding checks ranges whose values the
// term-by-term loop could not hold or never finishes: counting them
// must allocate next to nothing, and the spec must fail its cap or its
// cells.
func TestHostileRangesCountWithoutBuilding(t *testing.T) {
	for _, tc := range []struct {
		axis Axis
		want string
	}{
		{Axis{Field: FieldTags, Range: &Range{From: 1, To: 1 << 24}}, "hard cap"},
		{Axis{Field: FieldTags, Range: &Range{From: 1, To: 1 << 40}}, "hard cap"},
		{Axis{Field: FieldStrength, Range: &Range{From: 1, To: math.MaxInt64, Mul: 2}}, "strength"},
		{Axis{Field: FieldStrength, Range: &Range{From: math.MaxInt64 - 1, To: math.MaxInt64, Step: 2}}, "strength"},
		{Axis{Field: FieldSeed, Range: &Range{From: math.MinInt64, To: math.MaxInt64}}, "hard cap"},
	} {
		s := Spec{Base: baseCfg(), Axes: []Axis{tc.axis}}
		if b := allocBytes(func() { _, _ = s.CellCount() }); b > 1<<16 {
			t.Errorf("%+v: CellCount allocates %d bytes", *tc.axis.Range, b)
		}
		if _, err := s.Expand(); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%+v: Expand error = %v, want one naming %q", *tc.axis.Range, err, tc.want)
		}
	}
}

// TestExpandBuildsRangeValuesOnce bounds the bytes a cap-sized range
// sweep expands through. Building the range's values again for every
// cell cost 4096 × 4096 ints, about 0.5 GB.
func TestExpandBuildsRangeValuesOnce(t *testing.T) {
	s := Spec{Base: baseCfg(), Axes: []Axis{{Field: FieldFrame, Range: &Range{From: 1, To: DefaultMaxCells}}}}
	var cells []Cell
	var err error
	b := allocBytes(func() { cells, err = s.Expand() })
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != DefaultMaxCells || cells[DefaultMaxCells-1].Config.FrameSize != DefaultMaxCells {
		t.Fatalf("expanded %d cells, last frame %d", len(cells), cells[len(cells)-1].Config.FrameSize)
	}
	if b > 50<<20 {
		t.Fatalf("Expand allocated %d MB, want at most 50 MB", b>>20)
	}
}

// allocBytes returns the bytes the process allocated while f ran.
func allocBytes(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}
