package scenario

import (
	"math"

	"repro/internal/aloha"
	"repro/internal/metrics"
	"repro/internal/prng"
	"repro/internal/sched"
)

// collisionContext is one unresolved collision subset carried across a
// reader's scheduled sessions: the handles that answered together in a
// collided slot, the estimated population behind them, and how many
// splits deep the subset already is.
type collisionContext struct {
	tags  []Handle
	est   float64
	depth int32
	seq   uint64 // admission order, the deterministic tie-break
}

// ctxQueue is a binary max-heap of collision contexts ordered by the
// CSCT priority wSize·est − wDepth·depth (big subsets first, shallow
// before deep), with admission order breaking exact ties so the heap
// never depends on pointer identity. Popped contexts recycle through a
// free list, so steady-state churn reuses both the context headers and
// their tag slices.
type ctxQueue struct {
	wSize, wDepth float64
	items         []*collisionContext
	free          []*collisionContext
	nextSeq       uint64
}

func (q *ctxQueue) priority(c *collisionContext) float64 {
	return float64(q.wSize*c.est) - float64(q.wDepth*float64(c.depth))
}

// before reports strict heap order: higher priority first, then earlier
// admission.
func (q *ctxQueue) before(a, b *collisionContext) bool {
	pa, pb := q.priority(a), q.priority(b)
	if pa != pb {
		return pa > pb
	}
	return a.seq < b.seq
}

func (q *ctxQueue) Len() int { return len(q.items) }

// get returns a recycled or fresh context header.
func (q *ctxQueue) get() *collisionContext {
	if n := len(q.free); n > 0 {
		c := q.free[n-1]
		q.free = q.free[:n-1]
		c.tags = c.tags[:0]
		return c
	}
	return &collisionContext{}
}

// push admits c, stamping its sequence number.
func (q *ctxQueue) push(c *collisionContext) {
	c.seq = q.nextSeq
	q.nextSeq++
	q.items = append(q.items, c)
	i := len(q.items) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !q.before(q.items[i], q.items[parent]) {
			break
		}
		q.items[i], q.items[parent] = q.items[parent], q.items[i]
		i = parent
	}
}

// pop removes and returns the highest-priority context, or nil when
// empty. The caller must recycle it once drained.
func (q *ctxQueue) pop() *collisionContext {
	n := len(q.items)
	if n == 0 {
		return nil
	}
	top := q.items[0]
	q.items[0] = q.items[n-1]
	q.items[n-1] = nil
	q.items = q.items[:n-1]
	n--
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		best := i
		if l < n && q.before(q.items[l], q.items[best]) {
			best = l
		}
		if r < n && q.before(q.items[r], q.items[best]) {
			best = r
		}
		if best == i {
			break
		}
		q.items[i], q.items[best] = q.items[best], q.items[i]
		i = best
	}
	return top
}

// recycle returns a drained context to the free list.
func (q *ctxQueue) recycle(c *collisionContext) {
	q.free = append(q.free, c)
}

// readRec is one pending identification: the handle and the absolute
// time its singleton slot ended. Records stay reader-local until the
// engine's serial merge.
type readRec struct {
	h  Handle
	at float64
}

// slotCosts caches the three slot airtimes (μs) for the run's detector
// and timing model.
type slotCosts struct {
	idle, single, collided float64
}

// readerState is everything one reader carries across its scheduled
// sessions: a deterministic PRNG stream, the FIFO of newcomers pushed
// by the arrival process, the collision-context priority queue, and the
// session's pending reads and census. Only the owning goroutine touches
// any of it during a colour group; the engine folds census and reads
// serially between groups.
type readerState struct {
	id  int
	rng prng.Source

	newcomers []Handle
	newHead   int

	ccq ctxQueue

	cand  []uint64 // per-session candidate scratch, in IndexFrame's currency
	reads []readRec

	census metrics.Census
	air    float64
}

// pushNewcomer appends an arriving tag to the reader's discovery FIFO.
func (r *readerState) pushNewcomer(h Handle) {
	r.newcomers = append(r.newcomers, h)
}

// pendingNewcomers returns the undrained FIFO length.
func (r *readerState) pendingNewcomers() int {
	return len(r.newcomers) - r.newHead
}

// compactNewcomers resets the FIFO storage once fully drained so the
// backing array is reused instead of growing forever.
func (r *readerState) compactNewcomers() {
	if r.newHead == len(r.newcomers) {
		r.newcomers = r.newcomers[:0]
		r.newHead = 0
	}
}

// frameSize maps a population estimate to the frame's slot count: the
// next power of two at or above the estimate (FSA throughput peaks near
// F ≈ n), clamped to [2, maxFrame].
func frameSize(est float64, maxFrame int) int {
	n := int(math.Ceil(est))
	if n < 2 {
		n = 2
	}
	if n > maxFrame {
		n = maxFrame
	}
	f := 2
	for f < n {
		f <<= 1
	}
	if f > maxFrame {
		f >>= 1
	}
	return f
}

// session runs one activation window: pop collision contexts (or drain
// a newcomer batch when none are queued) and run one frame each, until
// the airtime budget is spent or the reader has nothing to do. Slot
// semantics mirror deploy.RunSequential: a tag already read by anyone
// keeps silent, a singleton slot identifies its tag at the slot's end,
// and a collided slot becomes a child context sized by the Schoute
// estimator at depth+1.
func (r *readerState) session(st *Store, fr *sched.IndexFrame, costs slotCosts,
	start, budget float64, batch, maxFrame int) {
	spent := 0.0
	for spent < budget {
		r.cand = r.cand[:0]
		var est float64
		var depth int32
		// Candidate filtering: a queued handle is readable only if it
		// still names a live tag (generation match), was not globally
		// read as of the last merge, and was not already read by this
		// reader in an unmerged session. Departed and resolved tags
		// silently drop out of queues and contexts here, which is what
		// keeps stale handles free to carry.
		if c := r.ccq.pop(); c != nil {
			for _, h := range c.tags {
				if st.Valid(h) && st.FirstRead(h) < 0 && !st.Seen(r.id, h) {
					r.cand = append(r.cand, uint64(h))
				}
			}
			est = c.est
			depth = c.depth
			r.ccq.recycle(c)
		} else if r.pendingNewcomers() > 0 {
			n := r.pendingNewcomers()
			if n > batch {
				n = batch
			}
			for _, h := range r.newcomers[r.newHead : r.newHead+n] {
				if st.Valid(h) && st.FirstRead(h) < 0 && !st.Seen(r.id, h) {
					r.cand = append(r.cand, uint64(h))
				}
			}
			r.newHead += n
			r.compactNewcomers()
			// The drained batch size is the discovery estimate: newcomers
			// are unresolved by definition, so the count is exact.
			est = float64(n)
			depth = 0
		} else {
			break
		}
		if len(r.cand) == 0 {
			continue // every queued handle departed or resolved: no airtime
		}
		F := frameSize(est, maxFrame)
		fr.Build(r.cand, F, &r.rng)
		for s := 0; s < F; s++ {
			bucket := fr.Bucket(s)
			switch len(bucket) {
			case 0:
				spent += costs.idle
				r.census.Idle++
			case 1:
				spent += costs.single
				r.census.Single++
				h := Handle(bucket[0])
				st.SetSeen(r.id, h)
				r.reads = append(r.reads, readRec{h: h, at: start + spent})
			default:
				spent += costs.collided
				r.census.Collided++
				child := r.ccq.get()
				for _, w := range bucket {
					child.tags = append(child.tags, Handle(w))
				}
				// Schoute's expected tag count behind one collided slot
				// sizes the child context (the CSCT estimator_multiplier).
				child.est = aloha.SchouteMultiplier
				child.depth = depth + 1
				r.ccq.push(child)
			}
		}
		r.census.Frames++
	}
	r.air += spent
}
