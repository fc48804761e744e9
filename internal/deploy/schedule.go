package deploy

import (
	"fmt"
	"sort"

	"repro/internal/tagmodel"
)

// Section II of the paper defines two multi-reader collision types and
// prescribes their remedies: Reader-Tag collisions (a reader's strong
// carrier drowning a neighbour's tag replies) are avoided by "scheduling
// their interrogations into different slots", and Reader-Reader
// collisions by never activating two mutually audible readers at once.
// The evaluation then assumes those remedies are in place. This file
// implements the remedy: an interference graph over the readers and a
// greedy colouring that partitions them into concurrently-safe activation
// groups, turning the floor inventory from a sequential scan into a
// parallel schedule.

// InterferenceGraph returns, for each reader, the readers it must not be
// active with: those within radius metres (readers interfere well beyond
// their read range; a common rule of thumb is several times the tag
// range).
func (f *Floor) InterferenceGraph(radius float64) [][]int {
	if radius < 0 {
		panic(fmt.Sprintf("deploy: negative interference radius %v", radius))
	}
	adj := make([][]int, len(f.Readers))
	for i := range f.Readers {
		for j := i + 1; j < len(f.Readers); j++ {
			if f.Readers[i].Pos.Dist(f.Readers[j].Pos) <= radius {
				adj[i] = append(adj[i], j)
				adj[j] = append(adj[j], i)
			}
		}
	}
	return adj
}

// ColorReaders greedily colours the interference graph (largest degree
// first, reader ID breaking ties) and returns one colour per reader plus
// the colour count. Readers with the same colour can be activated
// simultaneously. The visit order is a strict total order and the
// smallest-free-colour scan consults only per-colour flags, so the
// colouring is a pure function of the adjacency — no map-iteration or
// sort-instability dependence — which the streaming scenario relies on
// for bit-identical schedules.
func ColorReaders(adj [][]int) (colors []int, count int) {
	n := len(adj)
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		da, db := len(adj[order[a]]), len(adj[order[b]])
		if da != db {
			return da > db
		}
		return order[a] < order[b]
	})
	colors = make([]int, n)
	for i := range colors {
		colors[i] = -1
	}
	// used[c] == stamp marks colour c taken by a neighbour of the current
	// vertex; stamping avoids both a per-vertex map and a per-vertex clear.
	used := make([]int, n+1)
	for step, v := range order {
		stamp := step + 1
		for _, u := range adj[v] {
			if c := colors[u]; c >= 0 {
				used[c] = stamp
			}
		}
		c := 0
		for used[c] == stamp {
			c++
		}
		colors[v] = c
		if c+1 > count {
			count = c + 1
		}
	}
	return colors, count
}

// ScheduleResult reports a scheduled (colour-parallel) floor inventory.
type ScheduleResult struct {
	// Colors is the number of activation groups.
	Colors int
	// MakespanMicros is the wall time of the schedule: groups run one
	// after another, readers within a group run concurrently, so each
	// group costs its slowest member.
	MakespanMicros float64
	// TotalAirtimeMicros is the summed airtime (equals the sequential
	// activation time).
	TotalAirtimeMicros float64
	// Identified counts tags read.
	Identified int
}

// Speedup is total airtime over makespan (1 = no parallelism gained).
func (r ScheduleResult) Speedup() float64 {
	if r.MakespanMicros == 0 {
		return 1
	}
	return r.TotalAirtimeMicros / r.MakespanMicros
}

// RunScheduled performs the floor inventory under the colour schedule:
// colour groups are activated in ascending order; within a group every
// reader runs its session on the tags in its range that are still
// unidentified when the group starts. Tags covered by two same-colour
// readers are deterministically assigned to the lower-ID reader (their
// discs do not interfere-overlap by construction of the radius, but read
// ranges may still touch).
func (f *Floor) RunScheduled(interferenceRadius float64, run SessionFn) ScheduleResult {
	adj := f.InterferenceGraph(interferenceRadius)
	colors, count := ColorReaders(adj)

	var res ScheduleResult
	res.Colors = count
	for c := 0; c < count; c++ {
		groupMax := 0.0
		claimed := map[int]bool{} // tag index -> claimed this group
		for ri, r := range f.Readers {
			if colors[ri] != c {
				continue
			}
			var sub []int
			for _, pt := range f.tagIndicesInRange(r) {
				if !f.Tags[pt].Tag.Identified && !claimed[pt] {
					claimed[pt] = true
					sub = append(sub, pt)
				}
			}
			if len(sub) == 0 {
				continue
			}
			micros := run(f.population(sub))
			res.TotalAirtimeMicros += micros
			if micros > groupMax {
				groupMax = micros
			}
		}
		res.MakespanMicros += groupMax
	}
	for _, pt := range f.Tags {
		if pt.Tag.Identified {
			res.Identified++
		}
	}
	return res
}

// UnscheduledResult quantifies the failure mode the schedule exists to
// avoid: all readers keying up at once.
type UnscheduledResult struct {
	// MakespanMicros is the slowest concurrent session (all readers start
	// together).
	MakespanMicros float64
	// Identified counts tags read.
	Identified int
	// Jammed counts tags inside some reader's read range that could not
	// be read because another active reader's carrier reached them
	// (Reader-Tag collision, Section II: the tag's backscatter is
	// "drowned" by the neighbour's transmission).
	Jammed int
}

// RunUnscheduled activates every reader simultaneously. A tag is readable
// only by a reader whose range covers it while no *other* reader within
// carrierRadius of the tag is transmitting — with all readers active,
// that means no second reader's carrier may reach the tag at all. The
// result demonstrates why Section II prescribes scheduling: with a
// realistic carrier radius several times the read range, most covered
// tags are jammed.
func (f *Floor) RunUnscheduled(carrierRadius float64, run SessionFn) UnscheduledResult {
	if carrierRadius < 0 {
		panic(fmt.Sprintf("deploy: negative carrier radius %v", carrierRadius))
	}
	var res UnscheduledResult
	claimed := map[int]bool{}
	jammedSet := map[int]bool{}
	for ri, r := range f.Readers {
		var sub []int
		for _, ti := range f.tagIndicesInRange(r) {
			if f.Tags[ti].Tag.Identified || claimed[ti] {
				continue
			}
			// Jammed if any other reader's carrier reaches this tag.
			jammed := false
			for rj, other := range f.Readers {
				if rj != ri && other.Pos.Dist(f.Tags[ti].Pos) <= carrierRadius {
					jammed = true
					break
				}
			}
			if jammed {
				jammedSet[ti] = true
				continue
			}
			claimed[ti] = true
			sub = append(sub, ti)
		}
		if len(sub) == 0 {
			continue
		}
		micros := run(f.population(sub))
		if micros > res.MakespanMicros {
			res.MakespanMicros = micros
		}
	}
	for _, pt := range f.Tags {
		if pt.Tag.Identified {
			res.Identified++
		}
	}
	res.Jammed = len(jammedSet)
	return res
}

// tagIndicesInRange returns the indices into f.Tags of the tags r
// covers, found through the grid index.
func (f *Floor) tagIndicesInRange(r Reader) []int {
	if f.grid == nil {
		return nil
	}
	lo := f.cellOf(Point{X: max(0, r.Pos.X-r.Range), Y: max(0, r.Pos.Y-r.Range)})
	hi := f.cellOf(Point{X: min(f.Side, r.Pos.X+r.Range), Y: min(f.Side, r.Pos.Y+r.Range)})
	var out []int
	for cx := lo[0]; cx <= hi[0]; cx++ {
		for cy := lo[1]; cy <= hi[1]; cy++ {
			for _, i := range f.grid[[2]int{cx, cy}] {
				if r.Covers(f.Tags[i].Pos) {
					out = append(out, i)
				}
			}
		}
	}
	return out
}

func (f *Floor) population(indices []int) tagmodel.Population {
	pop := make(tagmodel.Population, 0, len(indices))
	for _, i := range indices {
		pop = append(pop, f.Tags[i].Tag)
	}
	return pop
}
