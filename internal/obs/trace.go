package obs

// Trace export: the TraceStore's spans rendered as Chrome trace-event
// JSON (chrome://tracing, Perfetto) or as JSONL, one event per line.

import (
	"encoding/json"
	"io"
	"math"
	"sort"
)

// Event is one span in Chrome trace-event form: a complete event
// (Phase "X"). TS and Dur are microseconds on the store's monotonic
// clock.
type Event struct {
	Name  string         `json:"name"`
	Cat   string         `json:"cat,omitempty"`
	Phase string         `json:"ph"`
	TS    float64        `json:"ts"`
	Dur   float64        `json:"dur"`
	PID   int            `json:"pid"`
	TID   int            `json:"tid"`
	Args  map[string]any `json:"args,omitempty"`
}

// tracePID is the constant process id stamped on every event; traces
// here describe one process.
const tracePID = 1

// WriteChromeTrace writes one trace's spans — every retained trace's
// when traceID is "" — as a Chrome trace-event JSON object. An unknown
// trace writes an empty event array.
func (s *TraceStore) WriteChromeTrace(w io.Writer, traceID string) error {
	return json.NewEncoder(w).Encode(struct {
		TraceEvents     []Event `json:"traceEvents"`
		DisplayTimeUnit string  `json:"displayTimeUnit"`
	}{chromeEvents(s.export(traceID)), "ms"})
}

// WriteJSONL writes the same events one JSON object per line.
func (s *TraceStore) WriteJSONL(w io.Writer, traceID string) error {
	enc := json.NewEncoder(w)
	for _, e := range chromeEvents(s.export(traceID)) {
		if err := enc.Encode(e); err != nil {
			return err
		}
	}
	return nil
}

// export returns one trace's spans, or every retained span (oldest
// trace first) when traceID is "".
func (s *TraceStore) export(traceID string) []SpanRec {
	if traceID != "" || s == nil {
		return s.Spans(traceID)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []SpanRec
	for _, id := range s.order {
		out = append(out, s.traces[id].spans...)
	}
	return out
}

// catBlock numbers each span category's block of Chrome thread tracks:
// lane k of a category is tid catTrack(cat)+k, so each layer keeps its
// own group of rows. Other categories share block 9.
var catBlock = map[string]int{"http": 1, "jobs": 2, "sweep": 3, "cell": 4, "sim": 5}

// laneBlock is the tid stride between categories: more concurrently
// open spans of one category than this would spill into the next
// category's rows.
const laneBlock = 1000

func catTrack(cat string) int {
	if b, ok := catBlock[cat]; ok {
		return b * laneBlock
	}
	return 9 * laneBlock
}

// nanos rounds a microsecond timestamp to whole nanoseconds, the
// resolution of the store's clock. Lanes are assigned, and events
// exported, on rounded values, so float error in start+dur cannot turn
// abutting spans into overlapping ones.
func nanos(us float64) int64 { return int64(math.Round(us * 1e3)) }

// chromeEvents converts spans to Chrome trace events; the span/parent
// identity rides in args so the tree stays joinable after export.
//
// Chrome and Perfetto draw each (pid, tid) as one track, on which
// complete events must nest. Spans of one category that overlap
// without nesting (rounds on parallel workers, sweep cells in flight
// together) are therefore spread over lanes. A span joins its parent's
// lane when the parent is the innermost span still open there, else
// the first lane of its category with nothing open, else a new lane.
// A lane only ever holds a chain of ancestors, so a child stays on its
// parent's track and no two spans on a track partially overlap.
// Events keep the spans' recording order. The result is never nil, so
// an empty trace still exports traceEvents as an array.
func chromeEvents(spans []SpanRec) []Event {
	type open struct {
		id  uint64
		end int64
	}
	type lane struct {
		cat  string
		tid  int
		open []open // the chain of spans still open on the lane
	}
	order := make([]int, len(spans))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		x, y := &spans[order[a]], &spans[order[b]]
		if sx, sy := nanos(x.StartUS), nanos(y.StartUS); sx != sy {
			return sx < sy
		}
		if dx, dy := nanos(x.DurUS), nanos(y.DurUS); dx != dy {
			return dx > dy // the enclosing span first
		}
		return x.ID < y.ID // a parent's ID precedes its children's
	})
	lanes := map[string][]*lane{}
	laneOf := map[uint64]*lane{}
	tids := make([]int, len(spans))
	for _, i := range order {
		sp := &spans[i]
		start, end := nanos(sp.StartUS), nanos(sp.StartUS)+nanos(sp.DurUS)
		fits := func(l *lane) bool {
			n := len(l.open)
			for n > 0 && l.open[n-1].end <= start {
				n--
			}
			l.open = l.open[:n]
			return n == 0 || (l.open[n-1].id == sp.Parent && end <= l.open[n-1].end)
		}
		l := laneOf[sp.Parent]
		if l == nil || l.cat != sp.Cat || !fits(l) {
			l = nil
			for _, c := range lanes[sp.Cat] {
				if fits(c) {
					l = c
					break
				}
			}
		}
		if l == nil {
			l = &lane{cat: sp.Cat, tid: catTrack(sp.Cat) + len(lanes[sp.Cat])}
			lanes[sp.Cat] = append(lanes[sp.Cat], l)
		}
		l.open = append(l.open, open{sp.ID, end})
		laneOf[sp.ID] = l
		tids[i] = l.tid
	}
	out := make([]Event, 0, len(spans))
	for i, sp := range spans {
		args := map[string]any{"span": sp.ID, "trace": sp.Trace}
		if sp.Parent != 0 {
			args["parent"] = sp.Parent
		}
		for _, a := range sp.Attrs {
			args[a.Key] = a.Val
		}
		out = append(out, Event{
			Name: sp.Name, Cat: sp.Cat, Phase: "X",
			TS: float64(nanos(sp.StartUS)) / 1e3, Dur: float64(nanos(sp.DurUS)) / 1e3,
			PID: tracePID, TID: tids[i], Args: args,
		})
	}
	return out
}
