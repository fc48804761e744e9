// Package sweep turns parameter grids — the shape in which the paper
// reports every result (Tables V–IX, Figure 5) and the unit of work a
// heavy-traffic deployment actually receives — into first-class
// experiments. A Spec is a base sim.Config plus a list of axes; it
// expands deterministically into canonical per-cell configurations. A
// Runner, the one compute path for sweep cells and single experiments,
// schedules them on a shared jobs pool with result-cache dedup,
// coalescing within and across callers, per-worker scratch reuse and
// live per-cell progress events.
package sweep

import (
	"fmt"
	"slices"
	"strconv"
	"strings"

	"repro/internal/sim"
)

// Axis field names. Integer fields take Ints or Range, string fields
// take Strings, "seed" takes Seeds (or Ints), and "case" takes Cases.
const (
	FieldTags      = "tags"      // population size n
	FieldFrame     = "frame"     // FSA frame size F
	FieldStrength  = "strength"  // QCD preamble strength l
	FieldRounds    = "rounds"    // Monte-Carlo repetitions
	FieldSeed      = "seed"      // master seed
	FieldAlgorithm = "algorithm" // identification engine
	FieldDetector  = "detector"  // collision detector
	FieldPolicy    = "policy"    // FSA frame policy
	FieldCRC       = "crc"       // CRC preset for crccd
	FieldMode      = "mode"      // simulation fidelity: exact | stat
	FieldCase      = "case"      // linked (tags, frame) pairs — the paper's Table VI cases
)

// Cell caps: a spec without MaxCells may expand to DefaultMaxCells
// cells; no spec may exceed HardMaxCells.
const (
	DefaultMaxCells = 4096
	HardMaxCells    = 1 << 16
)

// Spec describes one parameter-grid sweep: every cell starts from Base
// and overrides one value per axis. The grid is the Cartesian product
// of the axes, expanded row-major (the last axis varies fastest), so
// the cell order is a deterministic function of the spec alone.
type Spec struct {
	// Name labels the sweep in merged reports (optional).
	Name string `json:"name,omitempty"`
	// Base is the configuration template every cell is derived from.
	Base sim.Config `json:"base"`
	// Axes are the grid dimensions, outermost first. A spec with no
	// axes expands to the single cell Base.
	Axes []Axis `json:"axes"`
	// MaxCells caps the expansion (default DefaultMaxCells, hard limit
	// HardMaxCells); specs expanding beyond it are rejected whole.
	MaxCells int `json:"max_cells,omitempty"`
	// CellWorkers is the rounds-parallelism inside one cell (default 1:
	// sweeps parallelise across cells, on the pool's workers).
	CellWorkers int `json:"cell_workers,omitempty"`
}

// Axis is one grid dimension: a config field plus the values it takes.
// Exactly one of Ints, Strings, Seeds, Range, Cases must be set, and it
// must suit the field's type.
type Axis struct {
	Field   string   `json:"field"`
	Ints    []int    `json:"ints,omitempty"`
	Strings []string `json:"strings,omitempty"`
	Seeds   []uint64 `json:"seeds,omitempty"`
	Range   *Range   `json:"range,omitempty"`
	Cases   []Case   `json:"cases,omitempty"`
}

// Range is an inclusive integer progression: arithmetic with Step
// (default 1), or geometric with Mul (From, From·Mul, … ≤ To).
type Range struct {
	From int `json:"from"`
	To   int `json:"to"`
	Step int `json:"step,omitempty"`
	Mul  int `json:"mul,omitempty"`
}

// count returns how many values a validated range holds, saturating
// above HardMaxCells (no spec may ask for more). It builds nothing and
// cannot overflow: the arithmetic span To−From is taken in uint64, and
// a geometric term is multiplied only while the product stays ≤ To.
func (r Range) count() int {
	if r.Mul > 1 {
		n := 1
		for v := r.From; v <= r.To/r.Mul; v *= r.Mul {
			n++
		}
		return n
	}
	step := uint64(max(r.Step, 1))
	return int(min((uint64(r.To)-uint64(r.From))/step, HardMaxCells) + 1)
}

// values materialises a validated range, count() values long.
func (r Range) values() []int {
	out := make([]int, r.count())
	v := r.From
	for i := range out {
		out[i] = v
		if r.Mul > 1 {
			v *= r.Mul
		} else {
			v += max(r.Step, 1)
		}
	}
	return out
}

func (r Range) validate() error {
	if r.Mul != 0 && r.Step != 0 {
		return fmt.Errorf("range sets both step and mul")
	}
	if r.Mul != 0 {
		if r.Mul < 2 {
			return fmt.Errorf("range mul %d < 2", r.Mul)
		}
		if r.From < 1 {
			return fmt.Errorf("geometric range from %d < 1", r.From)
		}
	} else if r.Step < 0 {
		return fmt.Errorf("range step %d < 0", r.Step)
	}
	if r.To < r.From {
		return fmt.Errorf("range to %d < from %d", r.To, r.From)
	}
	return nil
}

// Case is one linked (tags, frame) setting, for axes whose values move
// several fields together — the paper's Table VI cases I–IV. A zero
// Frame keeps the base frame size.
type Case struct {
	Name  string `json:"name,omitempty"`
	Tags  int    `json:"tags"`
	Frame int    `json:"frame,omitempty"`
}

// coord is the case's single-cell label: its name, or "n<tags>".
func (c Case) coord() string {
	if c.Name != "" {
		return c.Name
	}
	return "n" + strconv.Itoa(c.Tags)
}

// intField reports whether the field takes integer values.
func intField(f string) bool {
	switch f {
	case FieldTags, FieldFrame, FieldStrength, FieldRounds, FieldSeed:
		return true
	}
	return false
}

// stringField reports whether the field takes string values.
func stringField(f string) bool {
	switch f {
	case FieldAlgorithm, FieldDetector, FieldPolicy, FieldCRC, FieldMode:
		return true
	}
	return false
}

// count returns the axis's value count, or an error when the axis is
// structurally invalid for its field.
func (a Axis) count() (int, error) {
	sources := 0
	for _, set := range []bool{len(a.Ints) > 0, len(a.Strings) > 0, len(a.Seeds) > 0, a.Range != nil, len(a.Cases) > 0} {
		if set {
			sources++
		}
	}
	if sources != 1 {
		return 0, fmt.Errorf("axis %q needs exactly one of ints, strings, seeds, range, cases", a.Field)
	}
	switch {
	case a.Field == FieldCase:
		if len(a.Cases) == 0 {
			return 0, fmt.Errorf("axis %q takes cases only", a.Field)
		}
		for _, c := range a.Cases {
			if c.Tags < 1 {
				return 0, fmt.Errorf("axis %q: case %q needs tags >= 1", a.Field, c.coord())
			}
		}
		return len(a.Cases), nil
	case stringField(a.Field):
		if len(a.Strings) == 0 {
			return 0, fmt.Errorf("axis %q takes strings only", a.Field)
		}
		return len(a.Strings), nil
	case intField(a.Field):
		if len(a.Strings) > 0 || len(a.Cases) > 0 {
			return 0, fmt.Errorf("axis %q takes ints, seeds or range only", a.Field)
		}
		if len(a.Seeds) > 0 && a.Field != FieldSeed {
			return 0, fmt.Errorf("axis %q takes ints or range only", a.Field)
		}
		if a.Range != nil {
			if err := a.Range.validate(); err != nil {
				return 0, fmt.Errorf("axis %q: %v", a.Field, err)
			}
			return a.Range.count(), nil
		}
		if len(a.Seeds) > 0 {
			return len(a.Seeds), nil
		}
		return len(a.Ints), nil
	default:
		return 0, fmt.Errorf("unknown axis field %q", a.Field)
	}
}

// coords returns the axis's per-value labels, in value order.
func (a Axis) coords() []string {
	switch {
	case len(a.Cases) > 0:
		out := make([]string, len(a.Cases))
		for i, c := range a.Cases {
			out[i] = c.coord()
		}
		return out
	case len(a.Strings) > 0:
		return a.Strings
	case len(a.Seeds) > 0:
		out := make([]string, len(a.Seeds))
		for i, s := range a.Seeds {
			out[i] = strconv.FormatUint(s, 10)
		}
		return out
	default:
		ints := a.Ints
		if a.Range != nil {
			ints = a.Range.values()
		}
		out := make([]string, len(ints))
		for i, v := range ints {
			out[i] = strconv.Itoa(v)
		}
		return out
	}
}

// apply sets the axis's vi-th value on cfg. A range axis applies only
// once Expand has built its values as Ints.
func (a Axis) apply(cfg *sim.Config, vi int) {
	switch a.Field {
	case FieldCase:
		c := a.Cases[vi]
		cfg.Tags = c.Tags
		if c.Frame != 0 {
			cfg.FrameSize = c.Frame
		}
	case FieldTags:
		cfg.Tags = a.Ints[vi]
	case FieldFrame:
		cfg.FrameSize = a.Ints[vi]
	case FieldStrength:
		cfg.Strength = a.Ints[vi]
	case FieldRounds:
		cfg.Rounds = a.Ints[vi]
	case FieldSeed:
		if len(a.Seeds) > 0 {
			cfg.Seed = a.Seeds[vi]
		} else {
			cfg.Seed = uint64(a.Ints[vi])
		}
	case FieldAlgorithm:
		cfg.Algorithm = a.Strings[vi]
	case FieldDetector:
		cfg.Detector = a.Strings[vi]
	case FieldPolicy:
		cfg.FramePolicy = a.Strings[vi]
	case FieldCRC:
		cfg.CRCName = a.Strings[vi]
	case FieldMode:
		cfg.Mode = a.Strings[vi]
	}
}

// AxisNames returns the spec's axis fields in order — the coordinate
// column names of the merged output.
func (s Spec) AxisNames() []string {
	names := make([]string, len(s.Axes))
	for i, a := range s.Axes {
		names[i] = a.Field
	}
	return names
}

// CellCount returns the number of cells the spec expands to without
// materialising them.
func (s Spec) CellCount() (int, error) {
	total := 1
	for _, a := range s.Axes {
		n, err := a.count()
		if err != nil {
			return 0, err
		}
		total *= n
		if total > HardMaxCells {
			return 0, fmt.Errorf("sweep: grid exceeds the hard cap of %d cells", HardMaxCells)
		}
	}
	return total, nil
}

// Validate reports structural spec errors: unknown or duplicated axis
// fields, malformed value lists, and cell counts beyond the cap. Per-cell
// configuration errors surface from Expand.
func (s Spec) Validate() error {
	seen := make(map[string]bool, len(s.Axes))
	for _, a := range s.Axes {
		if seen[a.Field] {
			return fmt.Errorf("sweep: duplicate axis %q", a.Field)
		}
		seen[a.Field] = true
	}
	n, err := s.CellCount()
	if err != nil {
		return err
	}
	limit := s.MaxCells
	if limit == 0 {
		limit = DefaultMaxCells
	}
	if limit < 1 || limit > HardMaxCells {
		return fmt.Errorf("sweep: max_cells %d out of [1,%d]", s.MaxCells, HardMaxCells)
	}
	if n > limit {
		return fmt.Errorf("sweep: grid expands to %d cells, above the cap of %d", n, limit)
	}
	if s.CellWorkers < 0 {
		return fmt.Errorf("sweep: cell_workers %d < 0", s.CellWorkers)
	}
	return nil
}

// Cell is one expanded grid point: its index in sweep order, its
// coordinates (one per axis), a human label, and the canonical
// configuration it runs.
type Cell struct {
	Index  int        `json:"index"`
	Coords []string   `json:"coords,omitempty"`
	Label  string     `json:"label"`
	Config sim.Config `json:"config"`
}

// Expand materialises the grid in deterministic sweep order: the
// Cartesian product of the axes with the last axis varying fastest,
// every cell validated and in canonical form (defaults filled,
// scheduling-only fields cleared). Expanding the same spec always
// yields the same cells in the same order.
func (s Spec) Expand() ([]Cell, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	total, err := s.CellCount()
	if err != nil {
		return nil, err
	}
	// Build each range's values once, as the axis's Ints.
	axes := slices.Clone(s.Axes)
	coords := make([][]string, len(axes))
	for i, a := range axes {
		if a.Range != nil {
			axes[i].Ints, axes[i].Range = a.Range.values(), nil
		}
		coords[i] = axes[i].coords()
	}
	cells := make([]Cell, 0, total)
	idx := make([]int, len(axes)) // odometer, last axis fastest
	for i := 0; i < total; i++ {
		cfg := s.Base
		cell := Cell{Index: i, Coords: make([]string, len(axes))}
		var label strings.Builder
		for ai, a := range axes {
			a.apply(&cfg, idx[ai])
			cell.Coords[ai] = coords[ai][idx[ai]]
			if ai > 0 {
				label.WriteByte(' ')
			}
			label.WriteString(a.Field)
			label.WriteByte('=')
			label.WriteString(cell.Coords[ai])
		}
		cell.Label = label.String()
		if err := cfg.Validate(); err != nil {
			return nil, fmt.Errorf("sweep: cell %d (%s): %w", i, cell.Label, err)
		}
		cell.Config = cfg.Canonical()
		cells = append(cells, cell)
		for ai := len(idx) - 1; ai >= 0; ai-- {
			idx[ai]++
			if idx[ai] < len(coords[ai]) {
				break
			}
			idx[ai] = 0
		}
	}
	return cells, nil
}
