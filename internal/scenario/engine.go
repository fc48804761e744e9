package scenario

import (
	"context"
	"math"
	"runtime"

	"repro/internal/deploy"
	"repro/internal/detect"
	"repro/internal/metrics"
	"repro/internal/prng"
	"repro/internal/signal"
	"repro/internal/sim"
	"repro/internal/timing"
)

// Options carries the engine's environment: none of it affects results.
type Options struct {
	// Scratch lends per-worker sim.RoundScratch (its IndexFrame) to the
	// reader sessions; nil gives the run a pool of its own.
	Scratch *sim.ScratchPool
	// OnEpoch receives a progress snapshot every EpochsPerProgress
	// epochs, called from the engine goroutine between epochs.
	OnEpoch func(Progress)
}

// Run executes the scenario to completion with default options.
func Run(spec Spec) (*Result, error) {
	return RunContext(context.Background(), spec, Options{})
}

// engine is the wired-up run state.
type engine struct {
	spec  Spec
	floor *deploy.Floor
	store *Store
	wheel *Wheel
	rds   []readerState
	// groups[c] lists colour class c's reader IDs in ascending order —
	// the serial merge order that pins determinism.
	groups [][]int
	costs  slotCosts

	cover    *coverIndex
	arrivals arrivalFeed

	// departCov holds, per store slot at the coverage stride, the
	// clear-list recorded when the slot's tag was admitted (see
	// arrivalBatch): the header says whether the tag was covered, and
	// only covered tags can ever be read or count toward the miss rate.
	departCov []int32

	newlyRead []Handle // per-group merge scratch

	// group and groupStart are the colour class runGroup is running and
	// its window's start, read by RunUnit.
	group      []int
	groupStart float64

	res        *Result
	epochReads int64
	epochLat   float64
}

// RunContext executes the scenario, stopping early (with the partial
// result and ctx.Err) if ctx is cancelled at an epoch boundary.
func RunContext(ctx context.Context, spec Spec, opts Options) (*Result, error) {
	spec = spec.WithDefaults()
	if err := spec.Validate(); err != nil {
		return nil, err
	}

	e := &engine{spec: spec, res: &Result{Spec: spec}}

	e.floor = deploy.NewFloor(spec.SideMetres)
	e.floor.PlaceReadersGrid(spec.Readers, spec.ReadRangeMetres)
	adj := e.floor.InterferenceGraph(spec.InterferenceRadiusMetres)
	colors, ncolors := deploy.ColorReaders(adj)
	e.res.Colors = ncolors
	e.groups = make([][]int, ncolors)
	for id := 0; id < spec.Readers; id++ {
		c := colors[id]
		e.groups[c] = append(e.groups[c], id)
	}

	e.cover = newCoverIndex(e.floor, spec.SideMetres, spec.ReadRangeMetres)

	det := detect.NewQCD(spec.Strength, spec.IDBits)
	tm := timing.Model{TauMicros: spec.TauMicros}
	e.costs = slotCosts{
		idle:     tm.SlotMicros(det, signal.Idle),
		single:   tm.SlotMicros(det, signal.Single),
		collided: tm.SlotMicros(det, signal.Collided),
	}

	// Streams derive from the master seed in a fixed order — reader 0..R-1
	// first, the arrival stream last — so every draw is pinned by the
	// spec alone, never by scheduling.
	master := prng.New(spec.Seed)
	e.rds = make([]readerState, spec.Readers)
	for i := range e.rds {
		e.rds[i].id = i
		e.rds[i].ccq.wSize = spec.PriorityWeightSize
		e.rds[i].ccq.wDepth = spec.PriorityWeightDepth
		master.SplitInto(&e.rds[i].rng)
	}
	stream := &e.arrivals.stream
	*stream = arrivalStream{
		side:     spec.SideMetres,
		dwell:    spec.DwellMicros,
		expDwell: spec.ExponentialDwell,
		gap:      1e6 / spec.ArrivalsPerSecond,
		cov:      e.cover,
	}
	master.SplitInto(&stream.rng)
	stream.next = stream.rng.Exp(stream.gap)

	expectedLive := int(spec.ArrivalsPerSecond*spec.DwellMicros/1e6) + 64
	capHint := expectedLive + expectedLive/2
	e.store = NewStore(spec.Readers, capHint)
	e.departCov = make([]int32, 0, capHint*e.cover.stride)
	dwellTicks := int(spec.DwellMicros/spec.TickMicros) + 1
	buckets := 2*dwellTicks + 64
	if buckets > 1<<15 {
		buckets = 1 << 15
	}
	e.wheel = NewWheel(spec.TickMicros, buckets)

	// The run's workers are split between its two stages: with more than
	// one, the arrival generator takes one and the sessions fan over the
	// rest (DESIGN §9).
	workers := spec.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	sessionWorkers := max(workers-1, 1)
	if opts.Scratch == nil {
		opts.Scratch = new(sim.ScratchPool)
	}

	// A group's arrival count is Poisson: four standard deviations above
	// its mean sizes the batches, and a busier group grows them once.
	perGroup := spec.ArrivalsPerSecond * spec.SessionMicros / 1e6
	batchHint := int(math.Min(perGroup+float64(4*math.Sqrt(perGroup))+16, 1<<14))
	e.arrivals.start(batchHint, workers > 1)
	defer e.arrivals.stop()

	epochSpan := float64(float64(ncolors) * spec.SessionMicros)
	now := 0.0
	var err error
	e.arrivals.prefetch(now)
	for now < spec.DurationMicros {
		if cerr := ctx.Err(); cerr != nil {
			err = cerr
			break
		}
		for c := 0; c < ncolors; c++ {
			groupStart := now + float64(float64(c)*spec.SessionMicros)
			batch := e.arrivals.next(groupStart)
			// Draw the next boundary's arrivals while this one admits
			// and its colour class runs.
			if c+1 < ncolors {
				e.arrivals.prefetch(now + float64(float64(c+1)*spec.SessionMicros))
			} else if now+epochSpan < spec.DurationMicros {
				e.arrivals.prefetch(now + epochSpan)
			}
			e.advanceTo(groupStart, batch)
			e.runGroup(e.groups[c], groupStart, sessionWorkers, opts.Scratch)
			e.mergeGroup(e.groups[c])
		}
		now += epochSpan
		e.res.Epochs++
		if live := e.store.Len(); live > e.res.PeakLive {
			e.res.PeakLive = live
		}
		if e.res.Epochs%spec.EpochsPerProgress == 0 {
			e.emitProgress(now, opts.OnEpoch)
		}
	}
	e.res.SimMicros = now

	// Drain: fire every remaining departure so tags still in the field
	// classify by their read state, exactly as mobility.Run drains.
	e.wheel.Drain(e.onDepart)

	if e.res.Latency.N() > 0 {
		e.res.LatencyMeanMicros = e.res.Latency.Mean()
		e.res.LatencyMaxMicros = e.res.Latency.Max()
	}
	return e.res, err
}

// advanceTo moves the simulation clock to a group boundary: departures
// fire first (wheel order), then every arrival due by the boundary is
// admitted, in arrival order. Both sequences are single-threaded and
// fully determined by the spec; the arrivals' draws and coverage were
// done ahead, off this path.
func (e *engine) advanceTo(at float64, arrivals *arrivalBatch) {
	e.wheel.AdvanceTo(at, e.onDepart)
	s := e.cover.stride
	for i, a := range arrivals.tags {
		h := e.store.Alloc(a.arrive, a.leave)
		push, clear := arrivals.lists[2*i*s:(2*i+1)*s], arrivals.lists[(2*i+1)*s:(2*i+2)*s]
		if base := int(h.index()) * s; base == len(e.departCov) {
			e.departCov = append(e.departCov, clear...)
		} else {
			copy(e.departCov[base:base+s], clear)
		}
		for _, id := range push[1 : 1+push[0]] {
			e.rds[id].pushNewcomer(h)
		}
		e.res.Arrived++
		if push[0] > 0 {
			e.res.Covered++
		}
		e.wheel.Schedule(a.leave, uint64(h))
	}
}

// onDepart retires a departing tag: a covered tag that was never read
// counts as missed (reads were already counted at merge time), the seen
// bits on its admit-time clear-list clear so the slot recycles clean,
// and the slot returns to the free list.
func (e *engine) onDepart(payload uint64) {
	h := Handle(payload)
	base := int(h.index()) * e.cover.stride
	if n := e.departCov[base]; n != uncovered {
		if e.store.FirstRead(h) < 0 {
			e.res.Missed++
		}
		for _, id := range e.departCov[base+1 : base+1+int(n)] {
			e.store.ClearSeen(int(id), h)
		}
	}
	e.store.Release(h)
}

// runGroup executes one colour class's sessions as sim.Fan's units, one
// per reader. Readers of one class are non-interfering by construction,
// and each session touches only its own reader's state plus read-only
// store columns, so they may run concurrently on the sessions' share of
// the workers; results cannot depend on the worker count because every
// reader consumes only its own PRNG stream, and mergeGroup folds them in
// ascending reader order. The engine is the unit, reading the group and
// its start from two fields, so the fan-out (once per colour class per
// epoch) allocates nothing at one session worker.
func (e *engine) runGroup(group []int, start float64, workers int, pool *sim.ScratchPool) {
	e.group, e.groupStart = group, start
	sim.Fan(workers, len(group), pool, e)
}

// RunUnit runs the session of the current group's i-th reader.
func (e *engine) RunUnit(i int, rs *sim.RoundScratch) {
	e.rds[e.group[i]].session(e.store, rs.IndexFrame(), e.costs, e.groupStart,
		e.spec.SessionMicros, e.spec.NewcomerBatch, e.spec.MaxFrame)
}

// mergeGroup folds the group's sessions back into global state, in
// ascending reader order. Phase one applies the minimum read time per
// tag (two same-colour readers can both read a tag in one window);
// phase two folds first-read latency for tags read for the first time,
// in discovery order. Census and airtime fold in the same pass.
func (e *engine) mergeGroup(group []int) {
	e.newlyRead = e.newlyRead[:0]
	for _, id := range group {
		r := &e.rds[id]
		for _, rec := range r.reads {
			if !e.store.Valid(rec.h) || rec.at > e.store.LeaveAt(rec.h) {
				continue // departed mid-window: the read came too late
			}
			cur := e.store.FirstRead(rec.h)
			if cur < 0 {
				e.newlyRead = append(e.newlyRead, rec.h)
				e.store.SetFirstRead(rec.h, rec.at)
			} else if rec.at < cur {
				e.store.SetFirstRead(rec.h, rec.at)
			}
		}
		r.reads = r.reads[:0]
		e.res.Census.Add(r.census)
		r.census = metrics.Census{}
		e.res.AirtimeMicros += r.air
		r.air = 0
	}
	for _, h := range e.newlyRead {
		lat := e.store.FirstRead(h) - e.store.ArriveAt(h)
		e.res.Latency.Add(lat)
		e.res.Read++
		e.epochReads++
		e.epochLat += lat
	}
}

// emitProgress publishes one progress snapshot and resets the
// interval's read tallies.
func (e *engine) emitProgress(now float64, fn func(Progress)) {
	if fn == nil {
		e.epochReads, e.epochLat = 0, 0
		return
	}
	span := float64(e.spec.EpochsPerProgress) * float64(e.res.Colors) * e.spec.SessionMicros
	p := Progress{
		Epoch:      e.res.Epochs,
		SimMicros:  now,
		Live:       e.store.Len(),
		Arrived:    e.res.Arrived,
		Read:       e.res.Read,
		Missed:     e.res.Missed,
		EpochReads: e.epochReads,
		MissRate:   e.res.MissRate(),
	}
	if e.epochReads > 0 {
		p.EpochMeanLatencyMicros = e.epochLat / float64(e.epochReads)
	}
	if span > 0 {
		p.ReadsPerSecond = float64(e.epochReads) / (span / 1e6)
	}
	e.epochReads, e.epochLat = 0, 0
	fn(p)
}
