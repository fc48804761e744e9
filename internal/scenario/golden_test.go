package scenario

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/sim"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/golden.json from the current engine")

const goldenPath = "testdata/golden.json"

// goldenSpecs are the pinned engine workloads. Between them they cover a
// multi-colour dense arena, the benchmark's warehouse spec on two seeds,
// exponential dwell at the Table V range, and a 25 m range where many
// readers share every coverage cell.
func goldenSpecs() map[string]Spec {
	warehouse := func(seed uint64) Spec {
		return Spec{
			ReadRangeMetres:   6,
			ArrivalsPerSecond: 400e3,
			DwellMicros:       50e3,
			DurationMicros:    1e6,
			Seed:              seed,
		}
	}
	return map[string]Spec{
		"small":            smallSpec(),
		"warehouse-seed1":  warehouse(1),
		"warehouse-seed2":  warehouse(2),
		"exp-dwell-3m":     {ReadRangeMetres: 3, ArrivalsPerSecond: 200e3, DwellMicros: 40e3, ExponentialDwell: true, DurationMicros: 0.5e6, Seed: 3},
		"range-25m-shared": {ReadRangeMetres: 25, ArrivalsPerSecond: 50e3, DwellMicros: 50e3, DurationMicros: 0.25e6, Seed: 4},
	}
}

// resultDigest is the SHA-256 of the result's canonical JSON with the
// scheduling-only worker count cleared.
func resultDigest(t *testing.T, res *Result) string {
	t.Helper()
	r := *res
	r.Spec.Workers = 0
	b, err := json.Marshal(r)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// checkConservation asserts the tallies every run must satisfy: each
// covered tag is either read or missed, coverage never exceeds arrivals,
// and latency folds exactly once per read.
func checkConservation(t *testing.T, name string, res *Result) {
	t.Helper()
	if res.Covered != res.Read+res.Missed {
		t.Errorf("%s: covered %d != read %d + missed %d", name, res.Covered, res.Read, res.Missed)
	}
	if res.Arrived < res.Covered {
		t.Errorf("%s: arrived %d < covered %d", name, res.Arrived, res.Covered)
	}
	if res.Latency.N() != res.Read {
		t.Errorf("%s: latency folded %d times for %d reads", name, res.Latency.N(), res.Read)
	}
}

// TestGoldenDigests pins every golden spec's full result, at worker
// counts covering every stage split (inline, async arrivals, fanned
// sessions), to the digest committed in testdata/golden.json. Any engine
// change that moves a single tally, census count or latency bit fails.
// Regenerate with `go test ./internal/scenario -run TestGoldenDigests
// -update` only when a result change is intended.
func TestGoldenDigests(t *testing.T) {
	want := map[string]string{}
	if !*updateGolden {
		b, err := os.ReadFile(goldenPath)
		if err != nil {
			t.Fatalf("read goldens: %v", err)
		}
		if err := json.Unmarshal(b, &want); err != nil {
			t.Fatalf("decode goldens: %v", err)
		}
	}
	got := map[string]string{}
	var pool sim.ScratchPool
	for name, spec := range goldenSpecs() {
		for _, workers := range []int{1, 2, 3, 4} {
			spec.Workers = workers
			res, err := RunContext(context.Background(), spec, Options{Scratch: &pool})
			if err != nil {
				t.Fatalf("%s workers=%d: %v", name, workers, err)
			}
			checkConservation(t, name, res)
			d := resultDigest(t, res)
			if prev, ok := got[name]; ok && prev != d {
				t.Errorf("%s: workers=%d digest %s differs from workers=1 %s", name, workers, d, prev)
			}
			got[name] = d
			if !*updateGolden && want[name] != d {
				t.Errorf("%s workers=%d: digest %s, golden %s", name, workers, d, want[name])
			}
		}
	}
	if *updateGolden {
		b, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	if len(want) != len(got) {
		t.Errorf("golden file has %d specs, test runs %d", len(want), len(got))
	}
}
