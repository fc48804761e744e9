package scenario

import (
	"fmt"
	"math"
	"runtime/debug"
	"slices"

	"repro/internal/deploy"
	"repro/internal/prng"
)

// coverIndex is the arena divided into read-range-sized cells, each
// listing the readers whose disc intersects it, so an arrival touches
// O(covering readers) instead of O(readers).
type coverIndex struct {
	readers     []deploy.Reader
	cellSize    float64
	cells       int
	cellReaders [][]int32
	// stride is one reader list's packed size: a header word plus room
	// for the longest cell list.
	stride int
	// band brackets every reader's range edge in squared distance for
	// coverPair.
	band coverBand
}

// coverBand holds squared-distance thresholds: a point at computed
// d² < in2 from a reader is covered by it, and at d² > out2 uncovered,
// both at its float64 position and once rounded to float32. Between
// them coverPair asks Covers and the float32 point is recomputed.
type coverBand struct{ in2, out2 float64 }

// newCoverBand returns the band of readers with ranges in [rMin, rMax]
// on an arena whose points move at most shift when rounded to float32.
// The relative 1e-9 slack absorbs every float64 rounding in d², the
// thresholds and Covers' own verdict; shift covers the float32 move. An
// inner threshold that is not a positive normal square (a tiny range on
// a large floor) never settles a point as covered, and a range whose
// square leaves the normal range never settles one at all.
func newCoverBand(rMin, rMax, shift float64) coverBand {
	const slack, minNormal = 1e-9, 0x1p-1022
	b := coverBand{in2: -1, out2: math.Inf(1)}
	if !(rMin*rMin >= minNormal && rMax*rMax <= math.MaxFloat64) {
		return b
	}
	if in := float64(rMin*(1-slack)) - shift; in > 0 && in*in >= minNormal {
		b.in2 = in * in
	}
	out := float64(rMax*(1+slack)) + shift
	b.out2 = out * out
	return b
}

// newCoverIndex precomputes, per cell, the readers whose disc
// intersects the cell's rectangle (distance from the reader to the rect
// at most the range).
func newCoverIndex(f *deploy.Floor, side, cellSize float64) *coverIndex {
	c := &coverIndex{readers: f.Readers, cellSize: cellSize}
	c.cells = int(math.Ceil(side / cellSize))
	if c.cells < 1 {
		c.cells = 1
	}
	c.cellReaders = make([][]int32, c.cells*c.cells)
	for _, r := range f.Readers {
		lo := func(v float64) int {
			return max(int((v-r.Range)/cellSize), 0)
		}
		hi := func(v float64) int {
			return min(int((v+r.Range)/cellSize), c.cells-1)
		}
		for cx := lo(r.Pos.X); cx <= hi(r.Pos.X); cx++ {
			for cy := lo(r.Pos.Y); cy <= hi(r.Pos.Y); cy++ {
				x0, x1 := float64(float64(cx)*cellSize), float64(float64(cx+1)*cellSize)
				y0, y1 := float64(float64(cy)*cellSize), float64(float64(cy+1)*cellSize)
				dx := math.Max(0, math.Max(x0-r.Pos.X, r.Pos.X-x1))
				dy := math.Max(0, math.Max(y0-r.Pos.Y, r.Pos.Y-y1))
				if float64(dx*dx)+float64(dy*dy) <= r.Range*r.Range {
					i := cy*c.cells + cx
					c.cellReaders[i] = append(c.cellReaders[i], int32(r.ID))
				}
			}
		}
	}
	longest := 0
	for _, ids := range c.cellReaders {
		longest = max(longest, len(ids))
	}
	c.stride = 1 + longest
	rMin, rMax := math.Inf(1), math.Inf(-1)
	for _, r := range f.Readers {
		rMin, rMax = min(rMin, r.Range), max(rMax, r.Range)
	}
	// A coordinate in [0, side] moves at most side·2^-24 when rounded to
	// float32 (or half float32's subnormal spacing 2^-149), so a point
	// moves less than side·2^-23.
	c.band = newCoverBand(rMin, rMax, max(side*0x1p-23, 0x1p-149))
	return c
}

// cover writes the IDs of the readers covering (x, y), in cell-list
// order, into dst (room for the longest cell list) and returns the count.
func (c *coverIndex) cover(dst []int32, x, y float64) int {
	cx := min(int(x/c.cellSize), c.cells-1)
	cy := min(int(y/c.cellSize), c.cells-1)
	n := 0
	for _, id := range c.cellReaders[cy*c.cells+cx] {
		if c.readers[id].Covers(deploy.Point{X: x, Y: y}) {
			dst[n] = id
			n++
		}
	}
	return n
}

// coverPair is cover at (x, y) that also reports same: whether cover at
// (x, y) rounded to float32 certainly returns the same list. It computes
// each candidate's d² once; same holds when the rounded point stays in
// the cell and every candidate's d² falls outside the band.
func (c *coverIndex) coverPair(dst []int32, x, y float64) (n int, same bool) {
	cx := min(int(x/c.cellSize), c.cells-1)
	cy := min(int(y/c.cellSize), c.cells-1)
	same = min(int(float64(float32(x))/c.cellSize), c.cells-1) == cx &&
		min(int(float64(float32(y))/c.cellSize), c.cells-1) == cy
	for _, id := range c.cellReaders[cy*c.cells+cx] {
		r := &c.readers[id]
		dx, dy := r.Pos.X-x, r.Pos.Y-y
		d2 := float64(dx*dx) + float64(dy*dy)
		in := d2 < c.band.in2
		if !in && !(d2 > c.band.out2) {
			same = false
			in = r.Covers(deploy.Point{X: x, Y: y})
		}
		if in {
			dst[n] = id
			n++
		}
	}
	return n, same
}

// uncovered is the clear-list header of a tag no reader covered at
// admission: it never counts as missed and clears no seen bits.
const uncovered = -1

// arrival is one drawn tag's contact window.
type arrival struct{ arrive, leave float64 }

// arrivalBatch holds the arrivals due by one group boundary, in arrival
// order, drawn ahead of the serial admit phase. lists packs two reader
// lists per arrival, each at the coverage stride with a header word
// first:
//
//   - the push list names the readers covering the drawn float64
//     position, which receive the tag as a newcomer; the header is the
//     count.
//   - the clear-list names the readers covering the position rounded to
//     float32, whose seen bits the departure clears; the header is the
//     count, or uncovered when the push list is empty.
//
// The two lists differ for a tag within a float32 rounding of a range
// edge. Clearing by the rounded position is what the committed goldens
// pin (DESIGN §9); the cost is that a reader on the push list but not on
// the clear-list can leave a stale seen bit on the recycled slot, hiding
// the slot's later tags from that reader.
type arrivalBatch struct {
	at    float64
	tags  []arrival
	lists []int32
}

// add appends one arrival at the float64 position (x, y) and records
// both of its reader lists. The clear-list is a copy of the push list
// when coverPair settles the rounded point, else cover at that point.
func (b *arrivalBatch) add(cov *coverIndex, arrive, leave, x, y float64) {
	b.tags = append(b.tags, arrival{arrive: arrive, leave: leave})
	s := cov.stride
	i := len(b.lists)
	b.lists = slices.Grow(b.lists, 2*s)[:i+2*s]
	push, clear := b.lists[i:i+s], b.lists[i+s:i+2*s]
	n, same := cov.coverPair(push[1:], x, y)
	push[0] = int32(n)
	switch {
	case n == 0:
		clear[0] = uncovered
	case same:
		copy(clear, push[:1+n])
	default:
		clear[0] = int32(cov.cover(clear[1:], float64(float32(x)), float64(float32(y))))
	}
}

// arrivalStream is the Poisson tag flow: arrival times, positions,
// dwells and coverage are a pure function of its PRNG stream and the
// static reader layout, independent of everything the sessions do.
type arrivalStream struct {
	rng      prng.Source
	next     float64 // the next arrival's time
	gap      float64 // mean inter-arrival time
	side     float64
	dwell    float64
	expDwell bool
	cov      *coverIndex
}

// fillHook, when set, runs at the start of every fill. It is a test seam
// for a failing generator and is nil outside tests.
var fillHook func()

// fill draws every arrival due by at into b. The per-arrival draw order
// is x, y, the dwell when exponential, then the next gap.
func (a *arrivalStream) fill(b *arrivalBatch, at float64) {
	if fillHook != nil {
		fillHook()
	}
	b.at = at
	b.tags, b.lists = b.tags[:0], b.lists[:0]
	for a.next <= at {
		x := a.rng.Float64() * a.side
		y := a.rng.Float64() * a.side
		dwell := a.dwell
		if a.expDwell {
			dwell = a.rng.Exp(dwell)
		}
		b.add(a.cov, a.next, a.next+dwell, x, y)
		a.next += a.rng.Exp(a.gap)
	}
}

// arrivalFeed hands the engine one boundary's arrivals at a time. In
// async mode one generator goroutine per run keeps one batch in flight:
// while the engine admits batch k and runs its colour class, the
// generator draws batch k+1 into the other buffer. Inline, next draws on
// demand. Either way the stream is consumed in the same order, so the
// mode never changes a result.
type arrivalFeed struct {
	stream    arrivalStream
	bufs      [2]arrivalBatch
	turn      int                // the buffer the next prefetch fills
	req, done chan *arrivalBatch // nil inline
	// panicked is the generator's panic value and stack, written before
	// done closes.
	panicked any
}

// start sizes the buffers for capHint arrivals and, in async mode,
// launches the generator.
func (f *arrivalFeed) start(capHint int, async bool) {
	bufs := f.bufs[:1]
	if async {
		bufs = f.bufs[:]
		f.req = make(chan *arrivalBatch)
		f.done = make(chan *arrivalBatch, 1)
		go f.generate()
	}
	for i := range bufs {
		bufs[i].tags = make([]arrival, 0, capHint)
		bufs[i].lists = make([]int32, 0, 2*capHint*f.stream.cov.stride)
	}
}

// generate is the generator goroutine. A panic in it closes done, and
// next panics with its value and stack on the engine goroutine, where the
// caller's recover (the job pool's) sees it.
func (f *arrivalFeed) generate() {
	defer close(f.done)
	defer func() {
		if v := recover(); v != nil {
			f.panicked = fmt.Sprintf("%v\n\nstack of the arrival generator that panicked:\n%s", v, debug.Stack())
		}
	}()
	for b := range f.req {
		f.stream.fill(b, b.at)
		f.done <- b
	}
}

// prefetch starts drawing the arrivals due by at on the generator; a
// no-op inline. In async mode every next must follow a prefetch of the
// same boundary.
func (f *arrivalFeed) prefetch(at float64) {
	if f.req == nil {
		return
	}
	b := &f.bufs[f.turn]
	f.turn ^= 1
	b.at = at
	f.req <- b
}

// next returns the arrivals due by at. The batch stays valid until the
// following call to next.
func (f *arrivalFeed) next(at float64) *arrivalBatch {
	if f.req == nil {
		f.stream.fill(&f.bufs[0], at)
		return &f.bufs[0]
	}
	b, ok := <-f.done
	if !ok {
		panic(f.panicked)
	}
	if b.at != at {
		panic("scenario: prefetched arrivals for the wrong boundary")
	}
	return b
}

// stop ends the generator and returns once it has exited, discarding
// any batch still in flight. It is safe after the generator panicked.
func (f *arrivalFeed) stop() {
	if f.req == nil {
		return
	}
	close(f.req)
	for range f.done {
	}
}
