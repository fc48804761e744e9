package obs

import (
	"context"
	"sync"
)

// StreamEvent is one telemetry event on a Bus: a monotonically
// increasing sequence ID (1-based, assigned by the bus), an event type
// ("round", "frame", "audit", "job", ...), and a free-form payload.
type StreamEvent struct {
	ID   uint64         `json:"id"`
	Type string         `json:"type"`
	Data map[string]any `json:"data,omitempty"`
}

// Bus is a bounded pub/sub event channel for live experiment telemetry.
// Publishing never blocks: a subscriber whose buffer is full is dropped
// (its channel is closed) and counted, so a stalled consumer cannot
// stall the simulation. A ring of recent events is retained for
// replay, which is what makes SSE Last-Event-ID resume work: a
// subscriber passing the last ID it saw receives everything newer that
// is still in the ring. The zero *Bus (nil) is a valid disabled bus —
// Publish and Close are no-ops — so instrumentation can call through
// unconditionally.
type Bus struct {
	dropInto *Counter // optional shared drop counter, set before use

	mu      sync.Mutex
	nextID  uint64
	history Ring[StreamEvent] // the most recent events, for replay
	subs    map[*Subscription]struct{}
	closed  bool
	dropped uint64
}

// NewBus returns a bus retaining at most historyCap events for replay
// (minimum 1).
func NewBus(historyCap int) *Bus {
	return &Bus{
		history: NewRing[StreamEvent](historyCap),
		subs:    make(map[*Subscription]struct{}),
	}
}

// Enabled reports whether events are being recorded.
func (b *Bus) Enabled() bool { return b != nil }

// CountDropsInto additionally increments c every time a slow subscriber
// is dropped (for exposing the drop count on a shared registry). Set it
// before the bus is in use.
func (b *Bus) CountDropsInto(c *Counter) {
	if b == nil {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	b.dropInto = c
}

// Publish appends one event to the history ring and fans it out to
// every subscriber. Subscribers that cannot accept the event without
// blocking are dropped: their channel is closed and the drop counter
// incremented. Publishing on a closed (or nil) bus is a no-op.
func (b *Bus) Publish(typ string, data map[string]any) {
	if b == nil {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return
	}
	b.nextID++
	ev := StreamEvent{ID: b.nextID, Type: typ, Data: data}
	b.history.Push(ev)
	for sub := range b.subs {
		select {
		case sub.ch <- ev:
		default:
			delete(b.subs, sub)
			close(sub.ch)
			b.dropped++
			if b.dropInto != nil {
				b.dropInto.Inc()
			}
		}
	}
}

// replayLocked returns the retained events with ID > afterID, oldest
// first.
func (b *Bus) replayLocked(afterID uint64) []StreamEvent {
	out := b.history.Items()
	for len(out) > 0 && out[0].ID <= afterID {
		out = out[1:]
	}
	return out
}

// Subscribe registers a consumer. Retained events with ID > afterID are
// replayed into the subscription immediately (afterID 0 replays the
// whole ring); live events then follow. buffer bounds how far the
// consumer may lag beyond the replay before it is dropped. Subscribing
// to a closed bus still receives the replay, then the channel closes —
// that is how a reconnect after completion drains the tail.
func (b *Bus) Subscribe(buffer int, afterID uint64) *Subscription {
	if buffer < 1 {
		buffer = 1
	}
	if b == nil {
		ch := make(chan StreamEvent)
		close(ch)
		return &Subscription{ch: ch}
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	replay := b.replayLocked(afterID)
	sub := &Subscription{bus: b, ch: make(chan StreamEvent, len(replay)+buffer)}
	for _, ev := range replay {
		sub.ch <- ev
	}
	if b.closed {
		close(sub.ch)
	} else {
		b.subs[sub] = struct{}{}
	}
	return sub
}

// Close retires the bus: every subscriber's channel is closed once it
// has drained and further publishes are ignored. Retained history stays
// replayable to late subscribers. Close is idempotent.
func (b *Bus) Close() {
	if b == nil {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return
	}
	b.closed = true
	for sub := range b.subs {
		close(sub.ch)
	}
	b.subs = make(map[*Subscription]struct{})
}

// Dropped returns how many subscribers were dropped for falling behind.
func (b *Bus) Dropped() uint64 {
	if b == nil {
		return 0
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.dropped
}

// Subscription is one consumer's view of a Bus.
type Subscription struct {
	bus *Bus
	ch  chan StreamEvent
}

// Events is the subscription's channel. It closes when the bus closes,
// the subscription is closed, or the consumer fell too far behind.
func (s *Subscription) Events() <-chan StreamEvent { return s.ch }

// Close detaches the subscription and closes its channel. Safe to call
// even after the bus dropped or closed it.
func (s *Subscription) Close() {
	if s.bus == nil {
		return
	}
	s.bus.mu.Lock()
	defer s.bus.mu.Unlock()
	if _, ok := s.bus.subs[s]; ok {
		delete(s.bus.subs, s)
		close(s.ch)
	}
}

// busKey carries a *Bus through context.
type busKey struct{}

// WithBus returns a context carrying b (a nil b is fine and yields a
// disabled bus downstream).
func WithBus(ctx context.Context, b *Bus) context.Context {
	return context.WithValue(ctx, busKey{}, b)
}

// BusFrom returns the context's event bus, or nil (a valid disabled
// bus) when none was attached.
func BusFrom(ctx context.Context) *Bus {
	b, _ := ctx.Value(busKey{}).(*Bus)
	return b
}
