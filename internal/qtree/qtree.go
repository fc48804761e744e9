// Package qtree implements Query Tree (QT) anti-collision and its
// adaptive variant AQS (Section II of the paper): the reader broadcasts a
// bit-string prefix; exactly the tags whose ID starts with that prefix
// respond. On a collision the reader splits the prefix into prefix·0 and
// prefix·1; a tag is identified when it answers alone. QT is
// deterministic in the IDs, which resolves the starvation problem of
// FSA/BT — and makes it vulnerable to a "blocker tag" that answers every
// query (Juels et al.), modelled in this package as an adversary.
package qtree

import (
	"fmt"

	"repro/internal/air"
	"repro/internal/bitstr"
	"repro/internal/detect"
	"repro/internal/metrics"
	"repro/internal/sched"
	"repro/internal/signal"
	"repro/internal/tagmodel"
	"repro/internal/timing"
)

func slotCap(n int) int64 { return int64(n)*1000 + 1_000_000 }

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// Blocker simulates a malicious (or privacy-protecting) blocker tag: for
// every query whose prefix falls inside its protected subtree it responds
// with garbage, forcing the reader to perceive a collision and recurse.
// A blocked slot is air's one slot exchange with the blocker as its
// interferer: the blocker sends garbage after the tags in the contention
// phase and, if the reader declares a single, in the ID phase too, and
// it counts as one more responder toward the slot's ground truth.
type Blocker struct {
	// Protected is the subtree prefix the blocker defends; a zero-length
	// prefix blocks the full ID space.
	Protected bitstr.BitString
	// Rng drives the garbage payloads.
	Rng interface{ Bits(int) uint64 }
}

// blocks reports whether the blocker answers a query for the prefix.
func (b *Blocker) blocks(prefix bitstr.BitString) bool {
	if b == nil {
		return false
	}
	// The blocker responds if the queried subtree intersects the
	// protected subtree: one prefix is a prefix of the other.
	return prefix.HasPrefix(b.Protected) || b.Protected.HasPrefix(prefix)
}

// garbage returns an n-bit random burst.
func (b *Blocker) garbage(n int) bitstr.BitString {
	out := bitstr.New(0)
	for remaining := n; remaining > 0; {
		chunk := remaining
		if chunk > 64 {
			chunk = 64
		}
		out = bitstr.Concat(out, bitstr.FromUint64(b.Rng.Bits(chunk), chunk))
		remaining -= chunk
	}
	return out
}

// Options configures a QT session.
type Options struct {
	// Blocker, if non-nil, injects adversarial responses.
	Blocker *Blocker
	// MaxSlots overrides the default livelock guard (0 = default). A
	// blocker makes the full tree walk Θ(2^depth), so demos set this.
	MaxSlots int64
	// StartQueries seeds the query queue (AQS); nil means the root split.
	StartQueries []bitstr.BitString
	// FanoutBits is how many bits a collision appends to the prefix:
	// 1 = the paper's binary query tree, 2 = a 4-ary tree (fewer collided
	// levels through shared prefixes, more idle probes). Default 1.
	FanoutBits int
	// Scratch, if non-nil, supplies the reusable slot state so that one
	// buffer set serves many sessions; nil means the session allocates its
	// own.
	Scratch *air.SlotScratch
	// Reuse, if non-nil, supplies the reusable pending-queue storage
	// (candidate arena, queue, responder buffer) so repeated rounds
	// allocate the tree-walk working set once; nil allocates per run.
	Reuse *Reuse
	// Session, if non-nil, is Reset and used for this run's metrics
	// instead of allocating a fresh one. The result aliases it and is
	// valid until the next run that reuses it.
	Session *metrics.Session
}

// pending is one enqueued query: the prefix to broadcast and the range
// of its candidate tags in the arena — exactly the population subset
// whose IDs extend the prefix, so executing the query never rescans the
// population.
type pending struct {
	prefix bitstr.BitString
	lo, hi int32
}

// Reuse pools the round-scoped working set of a query-tree walk: the
// candidate arena (every query's tag list, reclaimed wholesale at the
// next run), the pending-query queue, and the per-slot responder
// buffer. The zero value is ready; not safe for concurrent use.
type Reuse struct {
	arena sched.Arena
	queue []pending
	resp  []*tagmodel.Tag
}

func (o Options) session() *metrics.Session {
	if o.Session != nil {
		o.Session.Reset()
		return o.Session
	}
	return new(metrics.Session)
}

func (o Options) fanoutBits() int {
	if o.FanoutBits <= 0 {
		return 1
	}
	if o.FanoutBits > 4 {
		panic(fmt.Sprintf("qtree: fanout of %d bits (%d-ary) is unreasonable", o.FanoutBits, 1<<uint(o.FanoutBits)))
	}
	return o.FanoutBits
}

// split partitions the candidates by the kidBits ID bits that follow
// the prefix and enqueues one pending query per extension, in ascending
// bit-pattern order — the order the recursion has always visited
// children in. Tags already identified (or with IDs too short to reach
// the extended prefix) are dropped here; the survivors are exactly the
// tags a population scan with HasPrefix would have found for each
// child, in the same population index order, because Partition is
// stable. src may alias the arena.
func (ru *Reuse) split(prefix bitstr.BitString, src []*tagmodel.Tag, kidBits int) {
	plen := prefix.Len()
	end := plen + kidBits
	n := 1 << uint(kidBits)
	var bounds [17]int32
	ru.arena.Partition(src, n,
		func(t *tagmodel.Tag) int { return int(t.ID.Uint64Range(plen, end)) },
		func(t *tagmodel.Tag) bool { return !t.Identified && t.ID.Len() >= end },
		bounds[:n+1])
	for v := 0; v < n; v++ {
		ru.queue = append(ru.queue, pending{
			prefix: bitstr.Concat(prefix, bitstr.FromUint64(uint64(v), kidBits)),
			lo:     bounds[v],
			hi:     bounds[v+1],
		})
	}
}

// Result bundles the session metrics with the QT-specific outputs.
type Result struct {
	Session *metrics.Session
	// LeafQueries are the queries that ended in idle or single slots; AQS
	// feeds them back as the next round's starting queue.
	LeafQueries []bitstr.BitString
	// Truncated is true when the slot budget expired before every tag was
	// identified (expected under a blocker).
	Truncated bool
}

// Run identifies the population with the query-tree protocol under the
// given detector. Identified tags keep silent in later queries. When a
// declared-single slot yields no acknowledged tag (a phantom read), the
// reader re-arbitrates by splitting the prefix, so detection errors cost
// extra slots but never starve a tag.
func Run(pop tagmodel.Population, det detect.Detector, tm timing.Model, opt Options) *Result {
	idBits := 0
	if len(pop) > 0 {
		idBits = pop[0].ID.Len()
	}
	maxSlots := opt.MaxSlots
	if maxSlots == 0 {
		maxSlots = slotCap(len(pop))
	}

	sc := opt.Scratch
	if sc == nil {
		sc = new(air.SlotScratch)
	}
	fanout := opt.fanoutBits()
	ru := opt.Reuse
	if ru == nil {
		ru = new(Reuse)
	}
	ru.arena.Reset()
	ru.queue = ru.queue[:0]
	if opt.StartQueries != nil {
		// AQS replay: each start query's candidates are the prefix-matching
		// tags, gathered once up front. Identified tags are filtered when
		// the query executes (not here), exactly as the historical
		// pop-at-execution scan did with overlapping start prefixes.
		for _, prefix := range opt.StartQueries {
			lo := ru.arena.Len()
			for _, t := range pop {
				if t.ID.HasPrefix(prefix) {
					ru.arena.Push(t)
				}
			}
			ru.queue = append(ru.queue, pending{prefix, int32(lo), int32(ru.arena.Len())})
		}
	} else {
		b := fanout
		if idb := maxInt(idBits, 1); b > idb {
			b = idb
		}
		ru.split(bitstr.BitString{}, pop, b)
	}

	res := &Result{Session: opt.session()}
	s := res.Session
	now := 0.0
	var slots int64
	remaining := 0
	for _, t := range pop {
		if !t.Identified {
			remaining++
		}
	}

	for head := 0; head < len(ru.queue) && remaining > 0; head++ {
		if slots >= maxSlots {
			res.Truncated = true
			break
		}
		pe := ru.queue[head]
		ru.resp = ru.resp[:0]
		for _, t := range ru.arena.Slice(int(pe.lo), int(pe.hi)) {
			if !t.Identified {
				ru.resp = append(ru.resp, t)
			}
		}

		var jam air.Interferer
		if opt.Blocker.blocks(pe.prefix) {
			jam = opt.Blocker.garbage
		}
		o := sc.RunSlotInterfered(det, ru.resp, jam, now, tm.TauMicros)
		now += float64(float64(o.Bits) * tm.TauMicros)
		s.Record(o, now)
		slots++
		if o.Identified != nil {
			remaining--
		}

		declaredCollided := o.Declared == signal.Collided
		phantom := o.Declared == signal.Single && o.Identified == nil
		kidBits := fanout
		if pe.prefix.Len()+kidBits > idBits {
			kidBits = idBits - pe.prefix.Len()
		}
		switch {
		case (declaredCollided || phantom) && kidBits > 0:
			ru.split(pe.prefix, ru.arena.Slice(int(pe.lo), int(pe.hi)), kidBits)
		default:
			res.LeafQueries = append(res.LeafQueries, pe.prefix)
		}
	}
	s.Census.Frames = 1
	if remaining > 0 && !res.Truncated {
		// The tree was exhausted with tags left (only possible after an
		// unlucky phantom at full depth); rerun from the root on the
		// survivors — this is the reader starting a new inventory round.
		// The reuse storage hands over cleanly: only LeafQueries (plain
		// bit strings) survive the loop, so the child may reset the arena.
		next := Run(pop, det, tm, Options{
			Blocker: opt.Blocker, MaxSlots: maxSlots - slots, FanoutBits: opt.FanoutBits,
			Scratch: sc, Reuse: ru,
		})
		// The child's clock started at zero: its delays follow ours.
		s.Merge(next.Session, s.TimeMicros)
		res.LeafQueries = append(res.LeafQueries, next.LeafQueries...)
		res.Truncated = next.Truncated
	}
	return res
}

// RunAQS performs an AQS round: it replays the leaf queries a previous
// round discovered (plus the root when none are given), so a stable
// population is re-read without re-deriving the tree. It returns the new
// leaf set for the next round.
func RunAQS(pop tagmodel.Population, det detect.Detector, tm timing.Model, leaves []bitstr.BitString) *Result {
	for _, t := range pop {
		t.Identified = false
		t.IdentifiedAtMicros = 0
	}
	opt := Options{}
	if len(leaves) > 0 {
		opt.StartQueries = pruneLeaves(leaves)
	}
	return Run(pop, det, tm, opt)
}

// pruneLeaves deduplicates and sorts a leaf set into a valid query queue.
func pruneLeaves(leaves []bitstr.BitString) []bitstr.BitString {
	seen := make(map[string]bool, len(leaves))
	var out []bitstr.BitString
	for _, l := range leaves {
		k := l.Key()
		if !seen[k] {
			seen[k] = true
			out = append(out, l)
		}
	}
	return out
}
