package rescache

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"repro/internal/obs"
	"repro/internal/sim"
)

func TestConfigKeyCanonicalises(t *testing.T) {
	sparse := sim.Config{Tags: 100, Algorithm: sim.AlgFSA, FrameSize: 60, Detector: sim.DetQCD}
	full := sparse
	full.IDBits = 64
	full.Rounds = 1
	full.Strength = 8
	full.Workers = 7 // scheduling only — must not change the key

	k1, err := ConfigKey(sparse)
	if err != nil {
		t.Fatal(err)
	}
	k2, err := ConfigKey(full)
	if err != nil {
		t.Fatal(err)
	}
	if k1 != k2 {
		t.Errorf("equivalent configs hash differently: %s vs %s", k1, k2)
	}
	if len(k1) != 64 {
		t.Errorf("key %q is not a sha256 hex digest", k1)
	}

	other := sparse
	other.Tags = 101
	k3, _ := ConfigKey(other)
	if k3 == k1 {
		t.Error("different configs share a key")
	}
}

// TestConfigKeySeparatesModes is the stat-mode cache-isolation
// regression test: the same grid point in exact and stat mode must
// never share a cache entry, in either lookup direction, because the
// two modes' aggregates follow different draw sequences. It also pins
// the compatibility contract: explicit "exact" hashes identically to
// the default empty Mode, so pre-Mode cache keys stay valid.
func TestConfigKeySeparatesModes(t *testing.T) {
	base := sim.Config{Tags: 100, Algorithm: sim.AlgFSA, FrameSize: 60, Detector: sim.DetQCD}

	exact := base
	exact.Mode = sim.ModeExact
	stat := base
	stat.Mode = sim.ModeStat

	kDefault, err := ConfigKey(base)
	if err != nil {
		t.Fatal(err)
	}
	kExact, err := ConfigKey(exact)
	if err != nil {
		t.Fatal(err)
	}
	kStat, err := ConfigKey(stat)
	if err != nil {
		t.Fatal(err)
	}
	if kDefault != kExact {
		t.Errorf("explicit exact mode changed the key: %s vs %s (pre-Mode cache entries invalidated)", kExact, kDefault)
	}
	if kStat == kExact {
		t.Fatal("exact and stat configs share a cache key")
	}

	// Populate one mode, look up the other — both directions must miss.
	c := New(8)
	c.Put(kExact, "exact-aggregate")
	if v, ok := c.GetOrigin(kStat, "job"); ok {
		t.Errorf("stat lookup served the exact aggregate %v", v)
	}
	c.Put(kStat, "stat-aggregate")
	if v, _ := c.GetOrigin(kExact, "job"); v != "exact-aggregate" {
		t.Errorf("exact lookup returned %v", v)
	}
	if v, _ := c.GetOrigin(kStat, "job"); v != "stat-aggregate" {
		t.Errorf("stat lookup returned %v", v)
	}
}

func TestGetPutAndCounters(t *testing.T) {
	c := New(4)
	if _, ok := c.Get("a"); ok {
		t.Fatal("empty cache reported a hit")
	}
	c.Put("a", 1)
	if v, ok := c.Get("a"); !ok || v.(int) != 1 {
		t.Fatalf("Get(a) = %v, %v", v, ok)
	}
	c.Put("a", 2) // refresh
	if v, _ := c.Get("a"); v.(int) != 2 {
		t.Fatalf("refreshed value = %v, want 2", v)
	}
	st := c.Stats()
	if st.Hits != 2 || st.Misses != 1 || st.Entries != 1 || st.Capacity != 4 {
		t.Errorf("stats = %+v", st)
	}
	if got := st.HitRatio(); got < 0.66 || got > 0.67 {
		t.Errorf("hit ratio = %v, want 2/3", got)
	}
	if (Stats{}).HitRatio() != 0 {
		t.Error("empty stats hit ratio != 0")
	}
}

func TestLRUEviction(t *testing.T) {
	c := New(3)
	for i := 0; i < 3; i++ {
		c.Put(fmt.Sprintf("k%d", i), i)
	}
	c.Get("k0")    // k0 now most recent; k1 is the LRU
	c.Put("k3", 3) // evicts k1
	if has(c, "k1") {
		t.Error("k1 survived eviction")
	}
	for _, want := range []string{"k0", "k2", "k3"} {
		if !has(c, want) {
			t.Errorf("%s missing after eviction", want)
		}
	}
	if c.Len() != 3 {
		t.Errorf("len = %d, want 3", c.Len())
	}
	// Peek counts nothing and leaves recency alone: k2 is still the LRU.
	if st := c.Stats(); st.Hits != 1 || st.Misses != 0 {
		t.Errorf("Peek moved the counters: %+v", st)
	}
	c.Put("k4", 4)
	if has(c, "k2") {
		t.Error("Peek refreshed k2's recency")
	}
}

// has reports whether key is cached, through the uncounted Peek.
func has(c *Cache, key string) bool {
	_, ok := c.Peek(key)
	return ok
}

func TestZeroCapacityClamped(t *testing.T) {
	c := New(0)
	c.Put("a", 1)
	if !has(c, "a") {
		t.Error("capacity-clamped cache dropped its only entry")
	}
	c.Put("b", 2)
	if has(c, "a") || !has(c, "b") {
		t.Error("capacity-1 cache did not evict the older entry")
	}
}

func TestConcurrentAccess(t *testing.T) {
	c := New(16)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				key := fmt.Sprintf("k%d", i%24)
				c.Put(key, g)
				c.Get(key)
			}
		}(g)
	}
	wg.Wait()
	if c.Len() > 16 {
		t.Errorf("len = %d exceeds capacity", c.Len())
	}
}

// TestRegisterExposition checks the cache publishes its effectiveness
// series under the given prefix, sampled live at exposition time.
func TestRegisterExposition(t *testing.T) {
	c := New(8)
	reg := obs.NewRegistry()
	c.Register(reg, "cache")

	c.Get("missing")
	c.Put("k", 1)
	c.Get("k")
	c.Get("k")

	var sb strings.Builder
	reg.WritePrometheus(&sb)
	text := sb.String()
	for _, want := range []string{
		"cache_hits_total 2",
		"cache_misses_total 1",
		"cache_entries 1",
		"cache_capacity 8",
		"cache_hit_ratio 0.6666666666666666",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q:\n%s", want, text)
		}
	}
}

func TestOriginCounters(t *testing.T) {
	c := New(4)
	c.Put("k", 1)

	// Each GetOrigin call counts exactly once, on both the totals and
	// the origin's tally — a cache-hit short-circuit that consults the
	// cache once can never double-count.
	if _, hit := c.GetOrigin("k", "sweep"); !hit {
		t.Fatal("expected hit")
	}
	if _, hit := c.GetOrigin("absent", "sweep"); hit {
		t.Fatal("unexpected hit")
	}
	if _, hit := c.GetOrigin("k", "job"); !hit {
		t.Fatal("expected hit")
	}
	if _, hit := c.Get("k"); !hit { // totals only
		t.Fatal("expected hit")
	}

	sw := c.OriginStats("sweep")
	if sw.Hits != 1 || sw.Misses != 1 {
		t.Errorf("sweep origin = %d hits / %d misses, want 1/1", sw.Hits, sw.Misses)
	}
	jb := c.OriginStats("job")
	if jb.Hits != 1 || jb.Misses != 0 {
		t.Errorf("job origin = %d hits / %d misses, want 1/0", jb.Hits, jb.Misses)
	}
	if none := c.OriginStats("never"); none.Hits != 0 || none.Misses != 0 {
		t.Errorf("unseen origin = %+v, want zero tallies", none)
	}
	tot := c.Stats()
	if tot.Hits != 3 || tot.Misses != 1 {
		t.Errorf("totals = %d hits / %d misses, want 3/1", tot.Hits, tot.Misses)
	}
}

func TestRegisterOriginExposition(t *testing.T) {
	c := New(4)
	reg := obs.NewRegistry()
	c.Register(reg, "test_cache")
	c.RegisterOrigin(reg, "test_cache", "job")
	c.RegisterOrigin(reg, "test_cache", "sweep")

	c.Put("k", 1)
	c.GetOrigin("k", "sweep")
	c.GetOrigin("miss", "job")

	var sb strings.Builder
	reg.WritePrometheus(&sb)
	text := sb.String()
	for _, want := range []string{
		`test_cache_origin_hits_total{origin="sweep"} 1`,
		`test_cache_origin_misses_total{origin="sweep"} 0`,
		`test_cache_origin_hits_total{origin="job"} 0`,
		`test_cache_origin_misses_total{origin="job"} 1`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q:\n%s", want, text)
		}
	}
	if errs := obs.LintPrometheus(text); len(errs) > 0 {
		t.Errorf("exposition lint: %v", errs)
	}
}
