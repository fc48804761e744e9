// Package btree implements Binary Tree (BT) splitting anti-collision
// (Section III-B of the paper, Figure 2): every tag holds a counter,
// initially 0; a tag responds whenever its counter is 0. After a collided
// slot, the tags that collided add a random bit to their counter (the
// binary split) while everyone else increments; after a non-collided slot
// everyone decrements. Hush & Wood's analysis gives 2.885·n slots on
// average (1.443·n collided, 0.442·n idle, n single), λ ≈ 0.35 (Lemma 2).
//
// Implementation note: the per-tag counters of the protocol description
// are represented as a stack of groups — the group at depth d holds
// exactly the tags whose counter is d. A split pushes, a non-collided
// slot pops, and a misdetected collision merges the unacknowledged
// responders into the next group (they and it both reach counter 0
// together). This turns the naive O(n) per-slot scan into work
// proportional to the tags actually touched, which is what makes the
// 50000-tag case of Table VIII tractable.
//
// The package also provides ABS (Adaptive Binary Splitting, Myung & Lee):
// across repeated inventory rounds the tags keep the slot order the
// previous round established, so a stable population is re-read in
// exactly n consecutive single slots.
package btree

import (
	"fmt"

	"repro/internal/air"
	"repro/internal/detect"
	"repro/internal/metrics"
	"repro/internal/signal"
	"repro/internal/tagmodel"
	"repro/internal/timing"
)

func slotCap(n int) int64 { return int64(n)*1000 + 1_000_000 }

// groupStack is the counter representation: stack[head+d] holds the tags
// whose counter is d. The backing arrays of dropped groups go on free
// and back into later groups, so a session allocates only while its
// largest groups are first being built, not once per slot.
type groupStack struct {
	stack [][]*tagmodel.Tag
	head  int
	free  [][]*tagmodel.Tag
}

func (g *groupStack) empty() bool { return g.head >= len(g.stack) }

func (g *groupStack) top() []*tagmodel.Tag {
	if g.empty() {
		return nil
	}
	return g.stack[g.head]
}

// get returns an empty group, reusing a recycled backing array if any.
func (g *groupStack) get() []*tagmodel.Tag {
	if n := len(g.free); n > 0 {
		grp := g.free[n-1]
		g.free = g.free[:n-1]
		return grp
	}
	return nil
}

// recycle keeps grp's backing array for a later get; grp must no longer
// be referenced by the stack.
func (g *groupStack) recycle(grp []*tagmodel.Tag) {
	if cap(grp) > 0 {
		g.free = append(g.free, grp[:0])
	}
}

// pop removes the counter-0 group (a non-collided slot: everyone else
// decrements by sliding the window) and recycles it.
func (g *groupStack) pop() {
	g.recycle(g.stack[g.head])
	g.stack[g.head] = nil
	g.head++
}

// split replaces the counter-0 group with two groups (the random-bit
// split), recycling the old one; every deeper group's counter implicitly
// increments. When the window reaches the front of the stack it grows
// with headroom there, so a descent costs amortised O(1) per split.
func (g *groupStack) split(zero, one []*tagmodel.Tag) {
	g.recycle(g.stack[g.head])
	g.stack[g.head] = one
	if g.head == 0 {
		grown := make([][]*tagmodel.Tag, 2*len(g.stack)+1)
		g.head = len(grown) - len(g.stack)
		copy(grown[g.head:], g.stack)
		g.stack = grown
	}
	g.head--
	g.stack[g.head] = zero
}

// mergeNext folds the unacknowledged counter-0 tags into the group below
// before a pop, modelling a declared-non-collided slot whose responders
// were not acknowledged: they stay at 0 while the next group decrements
// to 0. They join after that group's own tags, in their current order.
func (g *groupStack) mergeNext(responders []*tagmodel.Tag) {
	next := g.head + 1
	for _, t := range responders {
		if t.Identified {
			continue
		}
		if next >= len(g.stack) {
			g.stack = append(g.stack, nil)
		}
		if g.stack[next] == nil {
			g.stack[next] = g.get()
		}
		g.stack[next] = append(g.stack[next], t)
	}
}

// Run identifies the whole population with counter-based binary splitting
// under the given detector and returns the session metrics. The Frames
// field of the census counts slots (one probe per slot), matching the
// "#of frame" column of the paper's Table VIII, which for BT equals the
// total slot count.
func Run(pop tagmodel.Population, det detect.Detector, tm timing.Model) *metrics.Session {
	g := &groupStack{stack: [][]*tagmodel.Tag{nil}}
	for _, t := range pop {
		if !t.Identified {
			g.stack[0] = append(g.stack[0], t)
		}
	}
	return run(g, len(pop), det, tm, nil)
}

func run(g *groupStack, n int, det detect.Detector, tm timing.Model, onIdentify func(*tagmodel.Tag)) *metrics.Session {
	s := &metrics.Session{}
	now := 0.0
	var sc air.SlotScratch
	var slots int64
	remaining := 0
	for i := g.head; i < len(g.stack); i++ {
		remaining += len(g.stack[i])
	}

	for remaining > 0 {
		if slots > slotCap(n) {
			panic(fmt.Sprintf("btree: exceeded slot cap identifying %d tags (detector %s)", n, det.Name()))
		}
		if g.empty() {
			// All groups drained without identifying everyone (cannot
			// happen: identified tags leave, others are merged/split).
			panic("btree: group stack drained with tags remaining")
		}
		responders := g.top()
		o := sc.RunSlot(det, responders, now, tm.TauMicros)
		now += float64(float64(o.Bits) * tm.TauMicros)
		s.Record(o, now)
		s.Census.Frames++
		slots++
		if o.Identified != nil {
			remaining--
			if onIdentify != nil {
				onIdentify(o.Identified)
			}
		}

		if o.Declared == signal.Collided {
			// Binary split: every responder draws a random bit, in group
			// order.
			zero, one := g.get(), g.get()
			for _, t := range responders {
				if t.Rng.Coin() == 0 {
					zero = append(zero, t)
				} else {
					one = append(one, t)
				}
			}
			g.split(zero, one)
		} else {
			// Non-collided: unacknowledged responders (phantom reads or
			// misdetected collisions) stay at counter 0 and merge with the
			// decrementing next group.
			g.mergeNext(responders)
			g.pop()
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
	g := &groupStack{}
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
	depth := maxOrder
	if depth == 0 {
		depth = 1
	}
	g.stack = make([][]*tagmodel.Tag, depth)
	for _, t := range pop {
		t.Identified = false
		t.IdentifiedAtMicros = 0
		c := counterOf(t)
		g.stack[c] = append(g.stack[c], t)
	}

	order := 0
	return run(g, len(pop), det, tm, func(t *tagmodel.Tag) {
		t.Slot = order
		order++
	})
}
