// Package btree implements Binary Tree (BT) splitting anti-collision
// (Section III-B of the paper, Figure 2): every tag holds a counter,
// initially 0; a tag responds whenever its counter is 0. After a collided
// slot, the tags that collided add a random bit to their counter (the
// binary split) while everyone else increments; after a non-collided slot
// everyone decrements. Hush & Wood's analysis gives 2.885·n slots on
// average (1.443·n collided, 0.442·n idle, n single), λ ≈ 0.35 (Lemma 2).
//
// Implementation note: the per-tag counters of the protocol description
// are represented as segments of one array — the contending tags sit in
// counter order, and a stack of segment ends marks where each counter's
// group stops, the counter-0 group on top. A split partitions the
// counter-0 segment in place and pushes one end, a non-collided slot
// advances the front and pops, and a misdetected collision rotates the
// unacknowledged responders behind the next group's tags (they and it
// both reach counter 0 together). This turns the naive O(n) per-slot
// scan into work proportional to the tags actually touched, which is
// what makes the 50000-tag case of Table VIII tractable, and a Reuse
// keeps the arrays from one round to the next.
//
// The package also provides ABS (Adaptive Binary Splitting, Myung & Lee):
// across repeated inventory rounds the tags keep the slot order the
// previous round established, so a stable population is re-read in
// exactly n consecutive single slots.
package btree

import (
	"fmt"
	"slices"

	"repro/internal/air"
	"repro/internal/detect"
	"repro/internal/metrics"
	"repro/internal/signal"
	"repro/internal/tagmodel"
	"repro/internal/timing"
)

func slotCap(n int) int64 { return int64(n)*1000 + 1_000_000 }

// Reuse pools the working set of BT and ABS rounds: the session, the
// slot scratch and the counter groups. The groups are one array holding
// every contending tag in counter order, a second array of the same
// length that a split or merge stages tags in, and the stack of group
// ends (deepest group first, so the top ends the counter-0 group). The
// zero value is ready. A session returned by Run or RunABS aliases the
// Reuse and is valid until its next run; not safe for concurrent use.
type Reuse struct {
	sess  metrics.Session
	sc    air.SlotScratch
	tags  []*tagmodel.Tag
	spare []*tagmodel.Tag
	ends  []int

	// imp is the channel; nil is the ideal channel the paper's BT
	// assumes. Only this package's tests set it, to reach the merge path
	// through captures and bit errors.
	imp *air.Impairment
}

// arena returns the group array sized for n tags, growing both arrays
// only when a larger population arrives.
func (r *Reuse) arena(n int) []*tagmodel.Tag {
	if cap(r.tags) < n {
		r.tags = make([]*tagmodel.Tag, n)
		r.spare = make([]*tagmodel.Tag, n)
	}
	return r.tags[:n]
}

// Run identifies the whole population with counter-based binary splitting
// under the given detector and returns the session metrics. The Frames
// field of the census counts slots (one probe per slot), matching the
// "#of frame" column of the paper's Table VIII, which for BT equals the
// total slot count.
func Run(pop tagmodel.Population, det detect.Detector, tm timing.Model) *metrics.Session {
	return new(Reuse).Run(pop, det, tm)
}

// Run is the package-level Run on r's working set.
func (r *Reuse) Run(pop tagmodel.Population, det detect.Detector, tm timing.Model) *metrics.Session {
	tags := r.arena(len(pop))
	m := 0
	for _, t := range pop {
		if !t.Identified {
			tags[m] = t
			m++
		}
	}
	r.ends = append(r.ends[:0], m)
	return r.run(m, len(pop), det, tm, nil)
}

// run resolves the m tags r.tags[:m] holds, grouped by counter as r.ends
// marks them. n sizes the slot cap.
func (r *Reuse) run(m, n int, det detect.Detector, tm timing.Model, onIdentify func(*tagmodel.Tag)) *metrics.Session {
	s := &r.sess
	s.Reset()
	tags, spare := r.tags[:m], r.spare[:m]
	now := 0.0
	var slots int64
	// tags[lo:] are the unidentified tags, the counter-0 group first.
	for lo := 0; lo < m; {
		if slots > slotCap(n) {
			panic(fmt.Sprintf("btree: exceeded slot cap identifying %d tags (detector %s)", n, det.Name()))
		}
		top := len(r.ends) - 1
		end := r.ends[top]
		responders := tags[lo:end]
		o := r.sc.RunSlotImpaired(det, responders, r.imp, now, tm.TauMicros)
		now += float64(float64(o.Bits) * tm.TauMicros)
		s.Record(o, now)
		s.Census.Frames++
		slots++
		if o.Identified != nil && onIdentify != nil {
			onIdentify(o.Identified)
		}

		if o.Declared == signal.Collided {
			// Binary split: every responder draws a random bit, in group
			// order. The zeros stay at the front, the ones follow them.
			z, k := lo, 0
			for _, t := range responders {
				if t.Rng.Coin() == 0 {
					tags[z] = t
					z++
				} else {
					spare[k] = t
					k++
				}
			}
			copy(tags[z:end], spare[:k])
			r.ends = append(r.ends, z)
			continue
		}
		// Non-collided: unacknowledged responders (phantom reads or
		// misdetected collisions) stay at counter 0 while the next group
		// decrements to 0; they join after that group's own tags, in
		// their current order. The last group is never popped: it ends
		// at m.
		k := 0
		for _, t := range responders {
			if !t.Identified {
				spare[k] = t
				k++
			}
		}
		next := end
		if top > 0 {
			next = r.ends[top-1]
			r.ends = r.ends[:top]
		}
		lo = end
		if k > 0 {
			lo -= k
			copy(tags[lo:], tags[end:next])
			copy(tags[next-k:next], spare[:k])
		}
	}
	return s
}

// absUnordered marks a tag with no position from a previous ABS round.
const absUnordered = -1

// PrepareABS marks the whole population as newcomers for a first ABS
// round; RunABS then behaves like a cold BT round.
func PrepareABS(pop tagmodel.Population) {
	for _, t := range pop {
		t.Slot = absUnordered
	}
}

// ResetOrder is an alias of PrepareABS: forget the inter-round ordering.
func ResetOrder(pop tagmodel.Population) { PrepareABS(pop) }

// PrepareABSNewcomers marks just the given tags (e.g. tags that entered
// the field since the last round) as newcomers; the rest of the
// population keeps its order.
func PrepareABSNewcomers(newcomers tagmodel.Population) {
	for _, t := range newcomers {
		t.Slot = absUnordered
	}
}

// RunABS performs one ABS inventory round. Tags whose Slot field holds an
// order from a previous round start at that counter, so a stable
// population is re-read in n single slots with no collisions; newcomers
// (Slot == absUnordered) join at a random existing position and provoke a
// split only where they land. After the round every identified tag's Slot
// holds its new order.
func RunABS(pop tagmodel.Population, det detect.Detector, tm timing.Model) *metrics.Session {
	return new(Reuse).RunABS(pop, det, tm)
}

// RunABS is the package-level RunABS on r's working set.
func (r *Reuse) RunABS(pop tagmodel.Population, det detect.Detector, tm timing.Model) *metrics.Session {
	maxOrder := 0
	ordered := false
	for _, t := range pop {
		if t.Slot != absUnordered {
			ordered = true
			if t.Slot+1 > maxOrder {
				maxOrder = t.Slot + 1
			}
		}
	}
	counterOf := func(t *tagmodel.Tag) int {
		switch {
		case t.Slot != absUnordered:
			return t.Slot
		case ordered:
			return t.Rng.Intn(maxOrder)
		default:
			return 0
		}
	}
	// A stable counting sort on the counters, drawn in population order:
	// ends[c] first counts counter c's tags, then holds where the next
	// one goes, and once every tag is placed, where group c ends.
	depth := max(maxOrder, 1)
	if cap(r.ends) < depth {
		r.ends = make([]int, depth)
	}
	ends := r.ends[:depth]
	clear(ends)
	for _, t := range pop {
		t.Identified = false
		t.IdentifiedAtMicros = 0
		t.Counter = counterOf(t)
		ends[t.Counter]++
	}
	start := 0
	for c, k := range ends {
		ends[c] = start
		start += k
	}
	tags := r.arena(len(pop))
	for _, t := range pop {
		tags[ends[t.Counter]] = t
		ends[t.Counter]++
	}
	slices.Reverse(ends) // the counter-0 group on top
	r.ends = ends

	order := 0
	return r.run(len(pop), len(pop), det, tm, func(t *tagmodel.Tag) {
		t.Slot = order
		order++
	})
}
