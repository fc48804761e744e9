package experiment

import (
	"sync"
	"testing"

	"repro/internal/epc"
	"repro/internal/sim"
)

// TestSharedRunMatchesSoloRuns: every artifact run from one registry
// renders text and CSV byte-identical to the same artifact run alone
// through ByID, and the shared run simulated each distinct configuration
// exactly once.
func TestSharedRunMatchesSoloRuns(t *testing.T) {
	o := Options{Rounds: 2, MaxCase: 2, Seed: 1}
	m := newMemo()
	for _, r := range registry(m) {
		shared, err := r.Run(o)
		if err != nil {
			t.Fatalf("%s shared: %v", r.ID, err)
		}
		solo, ok := ByID(r.ID)
		if !ok {
			t.Fatalf("ByID(%q) not found", r.ID)
		}
		alone, err := solo.Run(o)
		if err != nil {
			t.Fatalf("%s alone: %v", r.ID, err)
		}
		if got, want := shared.Render(), alone.Render(); got != want {
			t.Errorf("%s: shared run renders\n%s\nalone\n%s", r.ID, got, want)
		}
		if got, want := CSVOf(shared), CSVOf(alone); got != want {
			t.Errorf("%s: shared run CSV\n%s\nalone\n%s", r.ID, got, want)
		}
	}
	if m.misses != len(m.aggs) {
		t.Errorf("memo computed %d aggregates for %d distinct configurations", m.misses, len(m.aggs))
	}
	if len(m.aggs) == 0 {
		t.Error("no artifact went through the memo")
	}
}

// TestConcurrentRunnersShareOneMemo: artifacts run at once from one
// registry, reading overlapping configurations through the same memo and
// drawing their units' working sets from its pool, render what each
// renders alone.
func TestConcurrentRunnersShareOneMemo(t *testing.T) {
	o := Options{Rounds: 2, MaxCase: 1, Seed: 1}
	ids := map[string]bool{"table7": true, "table9": true, "fig7": true, "fig8": true, "capture": true, "schedule": true, "edfsa": true}
	want := map[string]string{}
	for id := range ids {
		r, _ := ByID(id)
		out, err := r.Run(o)
		if err != nil {
			t.Fatalf("%s alone: %v", id, err)
		}
		want[id] = out.Render()
	}
	var wg sync.WaitGroup
	for _, r := range Registry() {
		if !ids[r.ID] {
			continue
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			out, err := r.Run(o)
			if err != nil {
				t.Errorf("%s shared: %v", r.ID, err)
				return
			}
			if got := out.Render(); got != want[r.ID] {
				t.Errorf("%s: concurrent shared run renders\n%s\nalone\n%s", r.ID, got, want[r.ID])
			}
		}()
	}
	wg.Wait()
}

// TestMemoHandsOutCopies: an artifact that mutates the aggregate it was
// given changes neither the memo nor what a later artifact reads.
func TestMemoHandsOutCopies(t *testing.T) {
	o := Options{Rounds: 2, MaxCase: 1, Seed: 1, memo: newMemo()}
	c := epc.PaperCases()[0]
	fresh, err := o.run(c, sim.AlgFSA, sim.DetQCD, 8)
	if err != nil {
		t.Fatal(err)
	}
	want := *fresh
	for i := 0; i < 3; i++ {
		got, err := o.run(c, sim.AlgFSA, sim.DetQCD, 8)
		if err != nil {
			t.Fatal(err)
		}
		if *got != want {
			t.Fatalf("read %d: memo served %+v, want %+v", i, *got, want)
		}
		fresh.TimeMicros.Add(1e9) // the first reader keeps mutating its copy
		got.Slots.Add(1e9)
		got.Cfg.Tags = -1
	}
	if o.memo.misses != 1 {
		t.Errorf("memo computed %d aggregates for one configuration", o.memo.misses)
	}
}

// TestRegistriesShareNothing: one Registry call is one reproduction run.
// Re-running an artifact from the same registry simulates nothing, while
// a second Registry call, and ByID, simulate it afresh. Lemma 2 at one
// case needs one aggregate, EDFSA four (two algorithms under two
// detectors), and a runner's memo counts the aggregates it computed.
func TestRegistriesShareNothing(t *testing.T) {
	o := Options{Rounds: 2, MaxCase: 1, Seed: 1}
	run := func(rs []Runner, id string) int {
		t.Helper()
		for _, r := range rs {
			if r.ID == id {
				before := r.memo.misses
				if _, err := r.Run(o); err != nil {
					t.Fatal(err)
				}
				return r.memo.misses - before
			}
		}
		t.Fatalf("%s not registered", id)
		return 0
	}
	first := Registry()
	solo, _ := ByID("lemma2")
	for _, step := range []struct {
		name, id string
		rs       []Runner
		want     int
	}{
		{"first registry", "lemma2", first, 1},
		{"first registry again", "lemma2", first, 0},
		{"second registry", "lemma2", Registry(), 1},
		{"ByID", "lemma2", []Runner{solo}, 1},
		{"first registry", "edfsa", first, 4},
		{"first registry again", "edfsa", first, 0},
	} {
		if got := run(step.rs, step.id); got != step.want {
			t.Errorf("%s, %s: simulated %d aggregates, want %d", step.name, step.id, got, step.want)
		}
	}
}
