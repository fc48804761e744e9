package scenario

// Handle packs a store slot index with the slot's generation at packing
// time. Handles travel through newcomer queues, collision contexts and
// read buffers long after the tag may have departed; the generation lets
// every consumer detect staleness in O(1) instead of the store having to
// chase down queued references at departure.
type Handle uint64

func makeHandle(idx int32, gen uint32) Handle {
	return Handle(uint64(gen)<<32 | uint64(uint32(idx)))
}

func (h Handle) index() int32 { return int32(uint32(h)) }
func (h Handle) gen() uint32  { return uint32(uint64(h) >> 32) }

// Store holds the live tag population as a struct of arrays: parallel
// packed columns indexed by slot, plus one word-packed seen-bitmap per
// reader. There are no per-tag heap objects — a million-tag field is a
// handful of large slices — and departed slots recycle through a free
// list under fresh generations, so steady-state churn allocates nothing.
//
// firstRead doubles as the global read state: negative means unread, and
// the engine's serial merge is the only writer, so reader sessions can
// filter on it concurrently within a colour group (they observe the
// pre-group value, which is exactly the determinism contract).
type Store struct {
	arriveAt  []float64
	leaveAt   []float64
	firstRead []float64
	gen       []uint32

	// seen[r] holds reader r's word-packed per-slot bitmap: has this
	// reader already read the tag in the slot (pending global merge).
	seen [][]uint64

	free []int32
	live int
}

// NewStore returns a store for the given reader count, pre-sized for
// capHint concurrent tags.
func NewStore(readers, capHint int) *Store {
	if capHint < 1 {
		capHint = 1
	}
	s := &Store{
		arriveAt:  make([]float64, 0, capHint),
		leaveAt:   make([]float64, 0, capHint),
		firstRead: make([]float64, 0, capHint),
		gen:       make([]uint32, 0, capHint),
		seen:      make([][]uint64, readers),
	}
	words := (capHint + 63) / 64
	for r := range s.seen {
		s.seen[r] = make([]uint64, 0, words)
	}
	return s
}

// Len returns the live tag count; Cap the allocated slot count.
func (s *Store) Len() int { return s.live }
func (s *Store) Cap() int { return len(s.gen) }

// Alloc admits a tag and returns its handle. The slot comes from the
// free list when one exists; otherwise every column grows by one.
func (s *Store) Alloc(arrive, leave float64) Handle {
	var idx int32
	if n := len(s.free); n > 0 {
		idx = s.free[n-1]
		s.free = s.free[:n-1]
		s.arriveAt[idx] = arrive
		s.leaveAt[idx] = leave
		s.firstRead[idx] = -1
	} else {
		idx = int32(len(s.gen))
		s.arriveAt = append(s.arriveAt, arrive)
		s.leaveAt = append(s.leaveAt, leave)
		s.firstRead = append(s.firstRead, -1)
		s.gen = append(s.gen, 0)
		if int(idx)&63 == 0 {
			// Crossed into a new bitmap word: grow every reader's map.
			for r := range s.seen {
				s.seen[r] = append(s.seen[r], 0)
			}
		}
	}
	s.live++
	return makeHandle(idx, s.gen[idx])
}

// Release retires the tag behind h: the generation bumps (invalidating
// every outstanding handle) and the slot joins the free list. The
// caller clears the relevant seen bits first via ClearSeen — the store
// does not know which readers cover the slot.
func (s *Store) Release(h Handle) {
	idx := h.index()
	s.gen[idx]++
	s.free = append(s.free, idx)
	s.live--
}

// Valid reports whether h still names a live tag (generation match).
func (s *Store) Valid(h Handle) bool {
	return s.gen[h.index()] == h.gen()
}

// ArriveAt/LeaveAt/FirstRead return the corresponding columns; they are
// meaningful only while Valid(h).
func (s *Store) ArriveAt(h Handle) float64  { return s.arriveAt[h.index()] }
func (s *Store) LeaveAt(h Handle) float64   { return s.leaveAt[h.index()] }
func (s *Store) FirstRead(h Handle) float64 { return s.firstRead[h.index()] }

// SetFirstRead records the global first read time for h. Only the
// engine's serial merge calls it.
func (s *Store) SetFirstRead(h Handle, at float64) {
	s.firstRead[h.index()] = at
}

// Seen reports whether reader r has read the tag behind h (pending or
// merged); SetSeen records it. Each reader writes only its own bitmap,
// which is what makes same-colour sessions data-race free.
func (s *Store) Seen(r int, h Handle) bool {
	idx := h.index()
	return s.seen[r][idx>>6]&(1<<(uint(idx)&63)) != 0
}

func (s *Store) SetSeen(r int, h Handle) {
	idx := h.index()
	s.seen[r][idx>>6] |= 1 << (uint(idx) & 63)
}

// ClearSeen drops reader r's bit for h so a recycled slot starts clean.
func (s *Store) ClearSeen(r int, h Handle) {
	idx := h.index()
	s.seen[r][idx>>6] &^= 1 << (uint(idx) & 63)
}
