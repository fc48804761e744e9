// Package rescache is a content-addressed in-memory result cache for
// experiment aggregates. The simulator is deterministic per configuration
// (see the sim package docs), so a result keyed by a canonical hash of
// its sim.Config never needs recomputing: identical submissions are
// served the stored bytes. The cache is LRU-bounded and keeps hit/miss
// counters for the service's /metrics endpoint.
package rescache

import (
	"container/list"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"sync"

	"repro/internal/obs"
	"repro/internal/sim"
)

// ConfigKey returns the content address of a configuration: the SHA-256
// hex digest of the canonical form's JSON encoding. Two configurations
// that describe the same experiment (differing only in defaulted or
// scheduling-only fields, e.g. Workers) share a key.
func ConfigKey(c sim.Config) (string, error) {
	b, err := json.Marshal(c.Canonical())
	if err != nil {
		return "", fmt.Errorf("rescache: encoding config: %w", err)
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:]), nil
}

// Stats is a point-in-time snapshot of cache effectiveness.
type Stats struct {
	Hits     uint64
	Misses   uint64
	Entries  int
	Capacity int
}

// HitRatio is Hits / (Hits + Misses), or 0 before any lookup.
func (s Stats) HitRatio() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}

// Cache is a bounded LRU map from content key to stored value. It is
// safe for concurrent use.
type Cache struct {
	mu      sync.Mutex
	cap     int
	ll      *list.List // front = most recently used
	items   map[string]*list.Element
	hits    uint64
	misses  uint64
	origins map[string]*Stats // per-origin hit/miss tallies (GetOrigin)
}

type entry struct {
	key string
	val any
}

// New returns an empty cache bounded to capacity entries (minimum 1).
func New(capacity int) *Cache {
	if capacity < 1 {
		capacity = 1
	}
	return &Cache{
		cap:     capacity,
		ll:      list.New(),
		items:   make(map[string]*list.Element, capacity),
		origins: make(map[string]*Stats),
	}
}

// Get returns the value stored under key and marks it most recently
// used. The second result reports whether the key was present; every
// call counts as a hit or a miss.
func (c *Cache) Get(key string) (any, bool) {
	return c.GetOrigin(key, "")
}

// GetOrigin is Get attributing the lookup to an origin ("job" for
// single submissions, "sweep" for sweep cells, ...), so /metrics can
// show who the cache is serving. Exactly one hit or one miss is counted
// per call — on both the totals and the origin's tally — which is what
// keeps cache-hit short-circuit paths honest: callers must consult the
// cache once (no Contains-then-Get pairs) and attribute the lookup at
// that single point. An empty origin counts only the totals.
func (c *Cache) GetOrigin(key, origin string) (any, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	var os *Stats
	if origin != "" {
		os = c.origins[origin]
		if os == nil {
			os = &Stats{}
			c.origins[origin] = os
		}
	}
	el, ok := c.items[key]
	if !ok {
		c.misses++
		if os != nil {
			os.Misses++
		}
		return nil, false
	}
	c.hits++
	if os != nil {
		os.Hits++
	}
	c.ll.MoveToFront(el)
	return el.Value.(*entry).val, true
}

// Peek returns the value stored under key without touching recency or
// the hit/miss counters: a second look by a caller whose one counted
// lookup already missed.
func (c *Cache) Peek(key string) (any, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		return nil, false
	}
	return el.Value.(*entry).val, true
}

// Put stores val under key, evicting the least recently used entry if
// the cache is full. Storing an existing key refreshes its value and
// recency.
func (c *Cache) Put(key string, val any) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		el.Value.(*entry).val = val
		c.ll.MoveToFront(el)
		return
	}
	for c.ll.Len() >= c.cap {
		oldest := c.ll.Back()
		c.ll.Remove(oldest)
		delete(c.items, oldest.Value.(*entry).key)
	}
	c.items[key] = c.ll.PushFront(&entry{key: key, val: val})
}

// Len returns the number of cached entries.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// Stats returns a snapshot of the counters.
func (c *Cache) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return Stats{Hits: c.hits, Misses: c.misses, Entries: c.ll.Len(), Capacity: c.cap}
}

// OriginStats returns the hit/miss tallies attributed to one origin by
// GetOrigin (zero Stats for an origin never seen). Entries and Capacity
// describe the whole cache.
func (c *Cache) OriginStats(origin string) Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := Stats{Entries: c.ll.Len(), Capacity: c.cap}
	if os := c.origins[origin]; os != nil {
		out.Hits = os.Hits
		out.Misses = os.Misses
	}
	return out
}

// Register exposes the cache's effectiveness series on reg under prefix
// (for example "rfidd_cache" yields rfidd_cache_hits_total, ...),
// sampled from Stats at exposition time.
func (c *Cache) Register(reg *obs.Registry, prefix string) {
	reg.CounterFunc(prefix+"_hits_total", "Result-cache lookups served from memory.",
		func() uint64 { return c.Stats().Hits })
	reg.CounterFunc(prefix+"_misses_total", "Result-cache lookups that required computation.",
		func() uint64 { return c.Stats().Misses })
	reg.GaugeFunc(prefix+"_entries", "Aggregates currently cached.",
		func() float64 { return float64(c.Len()) })
	reg.GaugeFunc(prefix+"_capacity", "Result-cache capacity in entries.",
		func() float64 { return float64(c.cap) })
	reg.GaugeFunc(prefix+"_hit_ratio", "Hits over all cache lookups.",
		func() float64 { return c.Stats().HitRatio() })
}

// RegisterOrigin additionally exposes one origin's attributed lookups as
// labelled series ({prefix}_origin_hits_total{origin="sweep"}, ...), so
// sweep-cell dedup is distinguishable from single-job traffic on the
// same /metrics walk.
func (c *Cache) RegisterOrigin(reg *obs.Registry, prefix, origin string) {
	lbl := obs.L("origin", origin)
	reg.CounterFunc(prefix+"_origin_hits_total",
		"Result-cache lookups served from memory, by requesting origin.",
		func() uint64 { return c.OriginStats(origin).Hits }, lbl)
	reg.CounterFunc(prefix+"_origin_misses_total",
		"Result-cache lookups that required computation, by requesting origin.",
		func() uint64 { return c.OriginStats(origin).Misses }, lbl)
}
