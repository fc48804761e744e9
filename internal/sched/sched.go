// Package sched is the shared frame scheduler of the anti-collision
// engines: the per-frame bucketing of tags into slots, done once per
// frame instead of once per slot.
//
// Framed-ALOHA analyses (Schoute's dynamic frame sizing, EPC Gen-2 Q)
// assume the reader only ever touches the tags that answered a slot.
// The engines used to realise a frame either as F append-buckets
// rebuilt per frame (FSA, EDFSA) or — worst — as a full population
// rescan per slot (Q-adaptive's O(n·F)). Frame replaces both with a
// counting sort: one pass draws each tag's slot (preserving the PRNG
// draw order, which is the simulator's determinism contract), one pass
// places the tags into a single reusable flat array partitioned by
// per-slot offsets. Building a frame is O(n + F) and, in steady state,
// allocation-free.
//
// Determinism: Build calls draw exactly once per tag, in population
// index order — the same order the engines' old `for _, t := range pop`
// loops consumed randomness in — and the counting sort is stable, so
// every bucket lists its tags in population index order, matching the
// old append order. Responder sets per slot are therefore bit-identical
// to the scan-based engines'; the differential tests in this package pin
// that equivalence.
//
// A frame of 2^q slots (q ≥ 1) draws each slot as prng's Bits(q), the
// top q bits of one Uint64, instead of Intn(2^q). The two are the same
// draw: for a power-of-two bound Lemire's multiply-shift keeps exactly
// those top bits and never rejects, so both consume one Uint64 and return
// the same value. Other frame sizes, and the 1-slot frame (whose Intn(1)
// still consumes a draw), call Intn.
package sched

import (
	"fmt"
	"math/bits"

	"repro/internal/tagmodel"
)

// Frame buckets tags into the slots of one frame. The zero value is
// ready to use; a Frame retains its arrays across Build calls so one
// instance serves every frame of a session (and, held in a round
// scratch, every round of a run). Not safe for concurrent use.
type Frame struct {
	order  []*tagmodel.Tag // flat bucket storage, placed participants in slot-major order
	active []*tagmodel.Tag // still-unidentified tags for BuildActive, in population index order
	src    []*tagmodel.Tag // the population drawn is aligned with (Bucket's scan fallback)
	resp   []*tagmodel.Tag // reused materialisation buffer for beyond-prefix Bucket calls
	ptag   []*tagmodel.Tag // prefix-drawn tags gathered during the draw pass, in index order
	start  []int32         // prefix+1 bucket boundaries into order
	fill   []int32         // per-slot cursor during placement (and counts before)
	drawn  []int32         // per-tag drawn slot (or -1), aligned with src
	pslot  []int32         // ptag's drawn slots
	slots  int
	prefix int // number of leading slots materialised into order/start
}

// Build schedules one frame of the given slot count: draw is called
// once per tag, in index order, and must return the tag's chosen slot
// in [0, slots) or a negative value to withhold the tag from the frame
// (identified tags, tags of another EDFSA group). Draws may consume tag
// randomness; Build guarantees the call order and count so the PRNG
// sequence is independent of the bucketing strategy. After Build,
// Bucket(i) returns slot i's responders in population index order.
func (f *Frame) Build(pop []*tagmodel.Tag, slots int, draw func(*tagmodel.Tag) int) {
	counts := f.prepare(pop, slots, slots)

	// Pass 1: draw every tag's slot in index order and count bucket sizes.
	n := 0
	for i, t := range pop {
		s := draw(t)
		if s < 0 {
			f.drawn[i] = -1
			continue
		}
		if s >= slots {
			panic(fmt.Sprintf("sched: draw returned slot %d of a %d-slot frame", s, slots))
		}
		f.drawn[i] = int32(s)
		counts[s]++
		n++
	}
	f.place(pop, counts, n, nil)
}

// BuildSlots is Build specialised for the standard framed-ALOHA draw —
// every unidentified tag draws t.Rng.Intn(slots), identified tags are
// withheld — with the draw inlined into the counting pass. The
// PRNG sequence is identical to passing the equivalent closure to Build;
// skipping the per-tag indirect call just makes the hot draw pass cheaper
// for the engines that issue one Build per Query (Q-adaptive's rounds are
// a handful of slots long, so draw passes dominate their profile).
func (f *Frame) BuildSlots(pop []*tagmodel.Tag, slots int) {
	counts := f.prepare(pop, slots, slots)
	q := topBits(slots)
	n := 0
	for i, t := range pop {
		if t.Identified {
			f.drawn[i] = -1
			continue
		}
		var s int
		if q > 0 {
			s = int(t.Rng.Bits(q))
		} else {
			s = t.Rng.Intn(slots)
		}
		f.drawn[i] = int32(s)
		counts[s]++
		n++
	}
	f.place(pop, counts, n, nil)
}

// Reset loads the population into the frame's active list, preparing it
// for BuildActive. The list aliases nothing: it is an owned copy, in
// population index order.
func (f *Frame) Reset(pop []*tagmodel.Tag) {
	if cap(f.active) < len(pop) {
		f.active = make([]*tagmodel.Tag, 0, len(pop))
		// Pre-size the prefix-participant pair buffers too (their high
		// water is the active count), so the draw pass appends without
		// growth checks paying off into copies.
		f.ptag = make([]*tagmodel.Tag, 0, len(pop))
		f.pslot = make([]int32, 0, len(pop))
	}
	f.active = append(f.active[:0], pop...)
}

// BuildActive is BuildSlots over the frame's active list: every active
// tag draws, and tags identified since the previous build are compacted
// out — exactly the tags BuildSlots's Identified check would withhold,
// so the PRNG sequence is unchanged. Compaction is stable, keeping the
// list in population index order, which keeps the buckets in it too.
// Where BuildSlots rescans the whole population every frame, an
// inventory using Reset + BuildActive pays O(remaining + slots) per
// frame — the win grows as the population drains.
func (f *Frame) BuildActive(slots int) { f.BuildActivePrefix(slots, slots) }

// BuildActivePrefix is BuildActive, but materialises buckets eagerly
// only for the first prefix slots; later slots stay implicit in the
// drawn array, and Bucket answers them by a linear scan of the active
// list. This fits readers that visit a frame's slots in order and
// almost never get far — EPC Gen-2 Q restarts its round (QueryAdjust)
// after a handful of slots, so of a 2^Q-slot frame the placement pass
// would build hundreds of buckets nobody reads. The PRNG sequence and
// every Bucket result are identical to BuildActive's.
func (f *Frame) BuildActivePrefix(slots, prefix int) {
	counts := f.prepare(f.active, slots, prefix)
	q := topBits(slots)
	p := int32(f.prefix)
	f.ptag = f.ptag[:0]
	f.pslot = f.pslot[:0]
	w := 0
	// One pass compacts, draws, and gathers the prefix-drawn tags, so the
	// placement below touches only those instead of rescanning the list.
	// The compacting store is skipped while the list is still in place
	// (nothing identified yet) to spare the pointer write barriers.
	for i, t := range f.active {
		if t.Identified {
			continue
		}
		var s int
		if q > 0 {
			s = int(t.Rng.Bits(q))
		} else {
			s = t.Rng.Intn(slots)
		}
		if w != i {
			f.active[w] = t
		}
		f.drawn[w] = int32(s)
		w++
		if int32(s) < p {
			f.ptag = append(f.ptag, t)
			f.pslot = append(f.pslot, int32(s))
			counts[s]++
		}
	}
	f.active = f.active[:w]
	f.src = f.active
	f.place(f.ptag, counts, len(f.ptag), f.pslot)
}

// topBits returns q when slots = 2^q, the frames whose slot draw is
// Bits(q) (see the package doc), and 0 for every other size. The 1-slot
// frame gets 0 as well, so it keeps drawing by Intn.
func topBits(slots int) int {
	if slots&(slots-1) != 0 {
		return 0
	}
	return bits.TrailingZeros(uint(slots))
}

// prepare sizes the frame's arrays and returns the zeroed counts array
// (one count per materialised slot).
func (f *Frame) prepare(pop []*tagmodel.Tag, slots, prefix int) []int32 {
	if slots < 1 {
		panic(fmt.Sprintf("sched: frame of %d slots", slots))
	}
	if prefix > slots {
		prefix = slots
	}
	f.slots = slots
	f.prefix = prefix
	f.src = pop
	f.start = growInt32(f.start, prefix+1)
	f.fill = growInt32(f.fill, prefix+1)
	f.drawn = growInt32(f.drawn, len(pop))
	counts := f.fill[:prefix]
	for i := range counts {
		counts[i] = 0
	}
	return counts
}

// place turns counts into bucket boundaries and stable-places the n
// participants drawn into the materialised prefix, in index order.
// slotOf, when non-nil, gives src's drawn slots directly (src is a
// gathered prefix-participant list); when nil, src is the full drawn
// population and the out-of-prefix entries are skipped.
func (f *Frame) place(src []*tagmodel.Tag, counts []int32, n int, slotOf []int32) {
	// Prefix-sum the counts into bucket boundaries; fill doubles as the
	// per-bucket placement cursor.
	if cap(f.order) < n {
		f.order = make([]*tagmodel.Tag, n)
	}
	f.order = f.order[:n]
	p := int32(f.prefix)
	var off int32
	for i := int32(0); i < p; i++ {
		c := counts[i]
		f.start[i] = off
		f.fill[i] = off
		off += c
	}
	f.start[p] = off

	// Pass 2: stable placement in index order.
	if slotOf != nil {
		for i, t := range src {
			s := slotOf[i]
			f.order[f.fill[s]] = t
			f.fill[s]++
		}
		return
	}
	for i, t := range src {
		s := f.drawn[i]
		if s < 0 || s >= p {
			continue
		}
		f.order[f.fill[s]] = t
		f.fill[s]++
	}
}

// Bucket returns slot i's responders in population index order. Within
// the materialised prefix the slice aliases the Frame's bucket storage
// and is valid until the next Build; beyond it the responders are
// gathered by scanning the drawn slots into a single reused buffer, so
// that slice is valid only until the next Bucket call.
func (f *Frame) Bucket(i int) []*tagmodel.Tag {
	if i < f.prefix {
		return f.order[f.start[i]:f.start[i+1]:f.start[i+1]]
	}
	f.resp = f.resp[:0]
	d := int32(i)
	for j, s := range f.drawn[:len(f.src)] {
		if s == d {
			f.resp = append(f.resp, f.src[j])
		}
	}
	return f.resp
}

// Slots returns the slot count of the last built frame.
func (f *Frame) Slots() int { return f.slots }

// Participants returns how many tags were scheduled into the last frame.
func (f *Frame) Participants() int { return len(f.order) }

// growInt32 returns s with length n, reusing its backing array when the
// capacity allows. Contents are unspecified.
func growInt32(s []int32, n int) []int32 {
	if cap(s) < n {
		return make([]int32, n)
	}
	return s[:n]
}

// Arena is an append-only pool of tag lists whose segments stay valid
// until Reset — the backing store for work queues in which every entry
// owns a set of candidate tags, such as the query-tree pending queue.
// Unlike Frame, whose single partition is rebuilt every frame, an Arena
// accumulates many disjoint segments per round and reclaims them all at
// once, so a tree walk allocates its candidate lists once per run
// instead of once per split.
type Arena struct {
	tags []*tagmodel.Tag
}

// Reset discards every segment, retaining capacity.
func (a *Arena) Reset() { a.tags = a.tags[:0] }

// Len returns the current end of the arena; use it to mark segment
// bounds before appending.
func (a *Arena) Len() int { return len(a.tags) }

// Push appends one tag to the open segment at the end of the arena.
func (a *Arena) Push(t *tagmodel.Tag) { a.tags = append(a.tags, t) }

// Slice returns the segment [lo, hi). It aliases the arena and is valid
// until Reset; appends never move it because Partition and Push only
// grow the tail. (Growth may reallocate the backing array, so callers
// must re-derive slices from indices, which is what the queue entries
// store.)
func (a *Arena) Slice(lo, hi int) []*tagmodel.Tag { return a.tags[lo:hi:hi] }

// Partition stable-partitions src into n buckets appended at the
// arena's end: key must return a bucket in [0, n); tags for which keep
// returns false are dropped. bounds must hold n+1 entries and receives
// the absolute arena offsets of the new buckets: bucket k spans
// Slice(bounds[k], bounds[k+1]), its tags in src order. src may alias
// the arena (a Slice of an earlier segment): appends only grow the
// tail, and if growth moves the backing array the alias keeps reading
// the old, unchanged one. key and keep must be pure — with n buckets
// they are invoked up to n times per tag (tree fanouts are tiny, so the
// repeated scan beats a counting sort's extra cursor array).
func (a *Arena) Partition(src []*tagmodel.Tag, n int, key func(*tagmodel.Tag) int, keep func(*tagmodel.Tag) bool, bounds []int32) {
	if len(bounds) < n+1 {
		panic(fmt.Sprintf("sched: %d partition bounds for %d buckets", len(bounds), n))
	}
	for k := 0; k < n; k++ {
		bounds[k] = int32(len(a.tags))
		for _, t := range src {
			if keep(t) && key(t) == k {
				a.tags = append(a.tags, t)
			}
		}
	}
	bounds[n] = int32(len(a.tags))
}
