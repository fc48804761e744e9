package sweep

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"repro/internal/jobs"
	"repro/internal/rescache"
	"repro/internal/sim"
)

// holdPool returns a one-worker pool whose worker is held until release
// is called (or the test ends).
func holdPool(t *testing.T) (pool *jobs.Pool, release func()) {
	t.Helper()
	pool = jobs.NewPool(jobs.Options{Workers: 1, QueueDepth: 8})
	ch := make(chan struct{})
	if _, err := pool.Submit(context.Background(), "hold", func(context.Context) (any, error) {
		<-ch
		return nil, nil
	}, nil); err != nil {
		t.Fatal(err)
	}
	release = sync.OnceFunc(func() { close(ch) })
	t.Cleanup(func() {
		release()
		pool.Shutdown(context.Background())
	})
	return pool, release
}

func keyed(t *testing.T, c sim.Config) (sim.Config, string) {
	t.Helper()
	c = c.Canonical()
	key, err := rescache.ConfigKey(c)
	if err != nil {
		t.Fatal(err)
	}
	return c, key
}

func slowConfig() sim.Config {
	return sim.Config{Tags: 3000, Seed: 1, Rounds: 2000, Algorithm: sim.AlgFSA, FrameSize: 1500, Detector: sim.DetQCD}
}

// TestFlightContract drives a flight down every terminal path and checks
// that it publishes its bytes (on success) and releases its key on the
// worker before that worker's next job, that the flight drops its
// callers, and that every caller is settled with the final snapshot,
// which its membership reads through the flight's job.
func TestFlightContract(t *testing.T) {
	for _, tc := range []struct {
		name    string
		cfg     sim.Config
		timeout time.Duration
		panics  bool
		cancel  string // "", "queued" or "running"
		want    jobs.Status
	}{
		{name: "done", cfg: testSpec().Base, want: jobs.StatusDone},
		{name: "failed", cfg: slowConfig(), timeout: 5 * time.Millisecond, want: jobs.StatusFailed},
		{name: "panicked", cfg: testSpec().Base, panics: true, want: jobs.StatusFailed},
		{name: "canceled-queued", cfg: testSpec().Base, cancel: "queued", want: jobs.StatusCanceled},
		{name: "canceled-running", cfg: slowConfig(), cancel: "running", want: jobs.StatusCanceled},
	} {
		t.Run(tc.name, func(t *testing.T) {
			pool, release := holdPool(t)
			r := &Runner{Pool: pool, Cache: rescache.New(8), Scratch: &sim.ScratchPool{}, Timeout: tc.timeout}
			cfg, key := keyed(t, tc.cfg)
			started := make(chan struct{})
			var settled [2]jobs.Snapshot
			lead, _, err := r.Claim(context.Background(), Request{ID: "lead", Key: key, Config: cfg, Origin: "job", Workers: 1,
				Start: func() {
					close(started)
					if tc.panics {
						panic("boom")
					}
				},
				Settle: func(s jobs.Snapshot) { settled[0] = s }})
			if err != nil || lead == nil || !lead.Leads() {
				t.Fatalf("first claim: %v; want to lead", err)
			}
			join, _, err := r.Claim(context.Background(), Request{ID: "join", Key: key, Config: cfg, Origin: "sweep",
				Settle: func(s jobs.Snapshot) { settled[1] = s }})
			if err != nil || join == nil || join.Leads() || join.f != lead.f {
				t.Fatalf("second claim: %v; want to join", err)
			}
			if got := r.Leader(key); got != "lead" {
				t.Fatalf("Leader = %q, want lead", got)
			}
			type probe struct{ live, cached bool }
			probed := make(chan probe, 1)
			if _, err := pool.Submit(context.Background(), "probe", func(context.Context) (any, error) {
				_, cached := r.Cache.Peek(key)
				probed <- probe{r.Leader(key) != "", cached}
				return nil, nil
			}, nil); err != nil {
				t.Fatal(err)
			}
			switch tc.cancel {
			case "queued":
				lead.f.job.Cancel()
				release()
			case "running":
				release()
				<-started
				lead.f.job.Cancel()
			default:
				release()
			}
			p := <-probed
			if p.live {
				t.Error("the worker took its next job before the flight released its key")
			}
			if p.cached != (tc.want == jobs.StatusDone) {
				t.Errorf("bytes published = %v, want %v", p.cached, tc.want == jobs.StatusDone)
			}
			if lead.f.members != nil {
				t.Error("the landed flight still holds its callers")
			}
			for k, m := range []*Member{lead, join} {
				if got := m.Snapshot(); got.Status != tc.want || m.Live() {
					t.Errorf("caller %d: final snapshot %s (live %v), want %s", k, got.Status, m.Live(), tc.want)
				}
				if settled[k].Status != tc.want || settled[k].ID != "lead" {
					t.Errorf("caller %d settled with %s/%s, want lead/%s", k, settled[k].ID, settled[k].Status, tc.want)
				}
			}
			// The key is free again: the next claim leads (or, after a
			// success, is served the published bytes).
			next, body, err := r.Claim(context.Background(), Request{ID: "next", Key: key, Config: cfg, Origin: "job",
				Settle: func(jobs.Snapshot) {}})
			if err != nil || (body != nil) != (tc.want == jobs.StatusDone) || (next != nil) == (body != nil) {
				t.Errorf("claim after landing: flight %v, %d bytes, %v", next != nil, len(body), err)
			}
			if next != nil {
				next.f.job.Cancel()
			}
		})
	}
}

// TestRunnerTimeout: Timeout bounds a flight's run, so a configuration
// that outruns it fails with a deadline error, and every caller on the
// flight is settled with that failure.
func TestRunnerTimeout(t *testing.T) {
	pool := jobs.NewPool(jobs.Options{Workers: 1})
	defer pool.Shutdown(context.Background())
	r := &Runner{Pool: pool, Scratch: &sim.ScratchPool{}, Timeout: 20 * time.Millisecond}
	cfg, key := keyed(t, slowConfig())
	settled := make(chan jobs.Snapshot, 2)
	for _, id := range []string{"lead", "join"} {
		if _, _, err := r.Claim(context.Background(), Request{ID: id, Key: key, Config: cfg, Origin: "job", Workers: 1,
			Settle: func(s jobs.Snapshot) { settled <- s }}); err != nil {
			t.Fatal(err)
		}
	}
	for range 2 {
		s := <-settled
		if s.Status != jobs.StatusFailed || !errors.Is(s.Err, context.DeadlineExceeded) {
			t.Errorf("caller settled %s (%v), want failed with a deadline error", s.Status, s.Err)
		}
	}
}

// waitMembers polls until the live flight for key has n callers.
func waitMembers(t *testing.T, r *Runner, key string, n int) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
		r.mu.Lock()
		f := r.flights[key]
		got := 0
		if f != nil {
			got = len(f.members)
		}
		r.mu.Unlock()
		if got == n {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("flight has %d callers, want %d", got, n)
		}
	}
}

// TestLeaveSparesOtherCallers: a caller that leaves a flight another
// caller still waits on is settled as canceled at once, and the flight
// runs on for the other — whichever of the two leads it.
func TestLeaveSparesOtherCallers(t *testing.T) {
	for _, leaver := range []string{"sweep", "leader"} {
		t.Run(leaver, func(t *testing.T) {
			pool, release := holdPool(t)
			var mu sync.Mutex
			dones := map[string]Done{}
			report := func(d Done) { mu.Lock(); dones[d.ID] = d; mu.Unlock() }
			r := &Runner{Pool: pool, Cache: rescache.New(8), Scratch: &sim.ScratchPool{}, OnDone: report}
			cfg, key := keyed(t, testSpec().Base)
			req := Request{ID: "exp-1", Key: key, Config: cfg, Origin: "job"}
			req.Settle = func(snap jobs.Snapshot) { report(req.Done(snap)) }
			lead, _, err := r.Claim(context.Background(), req)
			if err != nil || lead == nil {
				t.Fatalf("claim: %v", err)
			}
			s := r.Start(context.Background(), "swp-1", mustPlan(t, Spec{Base: cfg}), nil)
			waitMembers(t, r, key, 2)
			left := "swp-1/c0"
			if leaver == "sweep" {
				s.Cancel()
			} else if n := r.Leave("exp-1"); n != 1 {
				t.Fatalf("Leave took %d callers off, want 1", n)
			} else {
				left = "exp-1"
			}
			mu.Lock()
			if d := dones[left]; d.Status != jobs.StatusCanceled {
				t.Errorf("the leaving caller %s ended %q before the flight ran, want canceled", left, d.Status)
			}
			mu.Unlock()
			release()
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			if err := s.Wait(ctx); err != nil {
				t.Fatal(err)
			}
			for deadline := time.Now().Add(10 * time.Second); lead.Live() && leaver == "sweep"; time.Sleep(time.Millisecond) {
				if time.Now().After(deadline) {
					t.Fatal("the flight never landed")
				}
			}
			stayed, want := "exp-1", "miss"
			if leaver == "leader" {
				stayed, want = "swp-1/c0", "coalesced"
			}
			mu.Lock()
			defer mu.Unlock()
			if d := dones[stayed]; d.Status != jobs.StatusDone || d.Cache != want {
				t.Errorf("the staying caller %s ended %s/%s, want done/%s", stayed, d.Status, d.Cache, want)
			}
			if _, ok := r.Cache.Peek(key); !ok {
				t.Error("the flight's bytes were not published")
			}
		})
	}
}

// TestLastLeaverReleasesKey: once the only caller leaves a queued
// flight, its key is free at once, and a new claim leads a fresh flight
// rather than joining the cancelled one. The leaver is settled when its
// cancelled job lands.
func TestLastLeaverReleasesKey(t *testing.T) {
	pool, release := holdPool(t)
	r := &Runner{Pool: pool, Cache: rescache.New(8), Scratch: &sim.ScratchPool{}}
	cfg, key := keyed(t, testSpec().Base)
	claim := func(id string) (*Member, chan jobs.Snapshot) {
		settled := make(chan jobs.Snapshot, 1)
		m, _, err := r.Claim(context.Background(), Request{ID: id, Key: key, Config: cfg, Origin: Origin,
			Settle: func(s jobs.Snapshot) { settled <- s }})
		if err != nil || m == nil || !m.Leads() {
			t.Fatalf("claim %s: %v; want to lead", id, err)
		}
		return m, settled
	}
	first, firstSettled := claim("swp-1/c0")
	if n := r.Leave("swp-1/c0"); n != 1 || r.Leader(key) != "" {
		t.Fatalf("after the last caller left: %d left, leader %q", n, r.Leader(key))
	}
	if !first.Live() {
		t.Error("the leaver was settled before its job landed")
	}
	// A second hold between the two flights: the cancelled one lands
	// while the fresh one is still queued.
	hold2 := make(chan struct{})
	if _, err := pool.Submit(context.Background(), "hold2", func(context.Context) (any, error) { <-hold2; return nil, nil }, nil); err != nil {
		t.Fatal(err)
	}
	_, secondSettled := claim("swp-2/c0")
	release()
	if got := <-firstSettled; got.Status != jobs.StatusCanceled {
		t.Errorf("the left flight ended %s, want canceled", got.Status)
	}
	if got := r.Leader(key); got != "swp-2/c0" {
		t.Errorf("after the cancelled flight landed, leader %q, want swp-2/c0", got)
	}
	close(hold2)
	if got := <-secondSettled; got.Status != jobs.StatusDone {
		t.Errorf("the fresh flight ended %s, want done", got.Status)
	}
}

// TestOutcomeVisibleOnceSettled: while a caller's Settle runs, its
// snapshot still reads unfinished and it is still live, so whoever sees
// the outcome also sees what Settle did with it.
func TestOutcomeVisibleOnceSettled(t *testing.T) {
	pool := jobs.NewPool(jobs.Options{Workers: 1})
	defer pool.Shutdown(context.Background())
	r := &Runner{Pool: pool, Cache: rescache.New(8), Scratch: &sim.ScratchPool{}}
	cfg, key := keyed(t, testSpec().Base)
	entered, release := make(chan struct{}), make(chan struct{})
	m, _, err := r.Claim(context.Background(), Request{ID: "lead", Key: key, Config: cfg, Origin: "job", Workers: 1,
		Settle: func(jobs.Snapshot) { close(entered); <-release }})
	if err != nil || m == nil {
		t.Fatalf("claim: %v", err)
	}
	<-entered
	if snap := m.Snapshot(); snap.Status.Terminal() || !m.Live() {
		t.Errorf("during Settle: snapshot %s, live %v; want unfinished and live", snap.Status, m.Live())
	}
	close(release)
	for deadline := time.Now().Add(10 * time.Second); m.Live() && time.Now().Before(deadline); time.Sleep(time.Millisecond) {
	}
	if snap := m.Snapshot(); snap.Status != jobs.StatusDone || m.Live() {
		t.Errorf("after Settle: snapshot %s, live %v; want done and settled", snap.Status, m.Live())
	}
}
