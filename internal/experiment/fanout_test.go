package experiment

import "testing"

// TestArtifactsIndependentOfWorkers: every artifact renders byte-identical
// text and CSV whatever the worker budget, including 3 workers, over
// which most drivers' units (mobility's 16, floor's 4) do not split
// evenly. Each budget gets a registry (and memo) of its own, so every
// aggregate is computed at that budget.
func TestArtifactsIndependentOfWorkers(t *testing.T) {
	render := func(workers int) map[string][2]string {
		o := Options{Rounds: 3, MaxCase: 2, Seed: 1, Workers: workers}
		out := map[string][2]string{}
		for _, r := range Registry() {
			res, err := r.Run(o)
			if err != nil {
				t.Fatalf("%s at %d workers: %v", r.ID, workers, err)
			}
			out[r.ID] = [2]string{res.Render(), CSVOf(res)}
		}
		return out
	}
	want := render(1)
	for _, workers := range []int{2, 3} {
		for id, got := range render(workers) {
			if got[0] != want[id][0] {
				t.Errorf("%s at %d workers renders\n%s\nat 1 worker\n%s", id, workers, got[0], want[id][0])
			}
			if got[1] != want[id][1] {
				t.Errorf("%s at %d workers CSV\n%s\nat 1 worker\n%s", id, workers, got[1], want[id][1])
			}
		}
	}
}
