// Package deploy implements the paper's Table V spatial environment: a
// 100 m × 100 m area covered by 100 readers with a 3 m identification
// range, and tags placed uniformly at random. Readers are activated
// sequentially (the paper assumes no reader-reader or reader-tag
// collisions, Section II), each running an ordinary single-reader
// identification session over the tags inside its range.
//
// A uniform grid index answers the range queries so floor-scale
// deployments stay O(tags) instead of O(readers × tags).
package deploy

import (
	"fmt"
	"math"

	"repro/internal/prng"
	"repro/internal/tagmodel"
)

// Point is a position in metres.
type Point struct{ X, Y float64 }

// Dist returns the Euclidean distance between two points.
func (p Point) Dist(q Point) float64 {
	dx, dy := p.X-q.X, p.Y-q.Y
	return math.Hypot(dx, dy)
}

// Reader is a fixed interrogator with a circular identification range.
type Reader struct {
	ID    int
	Pos   Point
	Range float64
}

// coversBand is the relative margin around R² inside which Covers defers
// to math.Hypot. dx²+dy² carries at most a few ulps (~1e-15) of relative
// error, so outside the band its verdict cannot differ from Hypot's.
const coversBand = 1e-9

// minNormal is the smallest normal float64. Below it, or at infinity, the
// squared comparison's relative-error argument breaks down.
const minNormal = 0x1p-1022

// Covers reports whether the reader can interrogate a tag at q. Its
// verdict is exactly r.Pos.Dist(q) <= r.Range for every input, but it
// compares squared distances and pays for math.Hypot only on points
// within a relative 1e-9 of the range edge, when R² is zero, subnormal
// or infinite, or when dx²+dy² overflows or is NaN.
func (r Reader) Covers(q Point) bool {
	dx, dy := r.Pos.X-q.X, r.Pos.Y-q.Y
	if r2 := r.Range * r.Range; r.Range > 0 && r2 >= minNormal && r2 <= math.MaxFloat64 {
		d2 := float64(dx*dx) + float64(dy*dy)
		if d2 < r2*(1-coversBand) {
			return true
		}
		if d2 > r2*(1+coversBand) {
			return false
		}
	}
	return math.Hypot(dx, dy) <= r.Range
}

// PlacedTag pairs a tag with its position.
type PlacedTag struct {
	Tag *tagmodel.Tag
	Pos Point
}

// Floor is a populated deployment area.
type Floor struct {
	Side    float64
	Readers []Reader
	Tags    []PlacedTag

	cell float64
	grid map[[2]int][]int // cell -> indices into Tags
}

// NewFloor returns an empty floor of the given square side (metres).
func NewFloor(side float64) *Floor {
	if side <= 0 {
		panic(fmt.Sprintf("deploy: floor side %v must be positive", side))
	}
	return &Floor{Side: side}
}

// PlaceReadersGrid positions count readers on a regular √count × √count
// grid (count must be a perfect square, e.g. the paper's 100 readers).
func (f *Floor) PlaceReadersGrid(count int, rng float64) {
	k := int(math.Round(math.Sqrt(float64(count))))
	if k*k != count {
		panic(fmt.Sprintf("deploy: %d readers do not form a square grid", count))
	}
	step := f.Side / float64(k)
	f.Readers = f.Readers[:0]
	for i := 0; i < k; i++ {
		for j := 0; j < k; j++ {
			f.Readers = append(f.Readers, Reader{
				ID:    i*k + j,
				Pos:   Point{X: (float64(i) + 0.5) * step, Y: (float64(j) + 0.5) * step},
				Range: rng,
			})
		}
	}
}

// PlaceReadersRandom positions count readers uniformly at random.
func (f *Floor) PlaceReadersRandom(count int, rng float64, src *prng.Source) {
	f.Readers = f.Readers[:0]
	for i := 0; i < count; i++ {
		f.Readers = append(f.Readers, Reader{
			ID:    i,
			Pos:   Point{X: src.Float64() * f.Side, Y: src.Float64() * f.Side},
			Range: rng,
		})
	}
}

// PlaceTags scatters the population uniformly over the floor and builds
// the spatial index. The cell size is the maximum reader range so a range
// query inspects at most 3×3 cells.
func (f *Floor) PlaceTags(pop tagmodel.Population, src *prng.Source) {
	maxRange := 1.0
	for _, r := range f.Readers {
		if r.Range > maxRange {
			maxRange = r.Range
		}
	}
	f.cell = maxRange
	f.grid = make(map[[2]int][]int)
	f.Tags = make([]PlacedTag, len(pop))
	for i, t := range pop {
		p := Point{X: src.Float64() * f.Side, Y: src.Float64() * f.Side}
		f.Tags[i] = PlacedTag{Tag: t, Pos: p}
		c := f.cellOf(p)
		f.grid[c] = append(f.grid[c], i)
	}
}

func (f *Floor) cellOf(p Point) [2]int {
	return [2]int{int(p.X / f.cell), int(p.Y / f.cell)}
}

// TagsInRange returns the tags a reader covers, via the grid index.
func (f *Floor) TagsInRange(r Reader) tagmodel.Population {
	return f.population(f.tagIndicesInRange(r))
}

// Coverage returns the fraction of tags covered by at least one reader.
func (f *Floor) Coverage() float64 {
	if len(f.Tags) == 0 {
		return 0
	}
	covered := 0
	for _, pt := range f.Tags {
		for _, r := range f.Readers {
			if r.Covers(pt.Pos) {
				covered++
				break
			}
		}
	}
	return float64(covered) / float64(len(f.Tags))
}

// SessionFn runs one single-reader identification session over a
// sub-population and returns its airtime in microseconds.
type SessionFn func(pop tagmodel.Population) (micros float64)

// RunSequential activates each reader in turn on the tags in its range
// that are still unidentified (a tag identified by one reader keeps
// silent for later readers). It returns total airtime and the number of
// tags identified.
func (f *Floor) RunSequential(run SessionFn) (totalMicros float64, identified int) {
	for _, r := range f.Readers {
		var sub tagmodel.Population
		for _, t := range f.TagsInRange(r) {
			if !t.Identified {
				sub = append(sub, t)
			}
		}
		if len(sub) == 0 {
			continue
		}
		totalMicros += run(sub)
	}
	for _, pt := range f.Tags {
		if pt.Tag.Identified {
			identified++
		}
	}
	return totalMicros, identified
}
