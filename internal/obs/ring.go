package obs

// Ring is a bounded buffer that keeps the most recent values: once it
// holds its capacity, each Push overwrites the oldest. It is not safe
// for concurrent use; its owner guards it with its own lock. The bus's
// replay history, the audit exemplars, rfidd's wide events and the
// history store's annotations are all Rings.
type Ring[T any] struct {
	buf  []T
	head int // the oldest value's index once buf is full
}

// NewRing returns a ring holding at most capacity values (minimum 1).
func NewRing[T any](capacity int) Ring[T] {
	return Ring[T]{buf: make([]T, 0, max(capacity, 1))}
}

// Push appends v and reports whether it overwrote the oldest value.
func (r *Ring[T]) Push(v T) bool {
	if len(r.buf) < cap(r.buf) {
		r.buf = append(r.buf, v)
		return false
	}
	r.buf[r.head] = v
	r.head = (r.head + 1) % len(r.buf)
	return true
}

// Len returns how many values the ring holds.
func (r *Ring[T]) Len() int { return len(r.buf) }

// Items returns a copy of the held values, oldest first.
func (r *Ring[T]) Items() []T {
	out := make([]T, 0, len(r.buf))
	out = append(out, r.buf[r.head:]...)
	return append(out, r.buf[:r.head]...)
}
