package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// benchmarkFile is the subset of BENCHMARK.json the smoke test checks.
type benchmarkFile struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkFile
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

// TestBenchmarkFileMatchesHarness pins BENCHMARK.json to the harness:
// the same workloads, and every metric with the unit the harness prints.
func TestBenchmarkFileMatchesHarness(t *testing.T) {
	b := readBenchmarkFile(t)
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json workload %q is not in the harness", w.Name)
		}
	}
	if len(names) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %v, the harness %v", names, workloadNames())
	}
	for _, c := range []struct {
		file    []struct{ Name, Unit string }
		harness []metricDef
	}{{b.EndToEnd, endToEnd}, {b.PerLayer, perLayer}} {
		if len(c.file) != len(c.harness) {
			t.Errorf("BENCHMARK.json has %d metrics where the harness has %d", len(c.file), len(c.harness))
			continue
		}
		for i, m := range c.file {
			if h := c.harness[i]; m.Name != h.name || m.Unit != h.unit {
				t.Errorf("metric %d: BENCHMARK.json %s [%s], harness %s [%s]", i, m.Name, m.Unit, h.name, h.unit)
			}
		}
	}
}

// TestSmokeAllWorkloads runs every workload at toy scale, traced, and
// checks the outputs pass, every metric is emitted in both result lines,
// the CPU ledger adds up and the Chrome trace loads.
func TestSmokeAllWorkloads(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	dir := t.TempDir()
	for _, name := range workloadNames() {
		t.Run(name, func(t *testing.T) {
			cfg := runConfig{workload: name, seed: 1, scale: toyScale(), traced: true, traceDir: dir}
			res, err := execute(ctx, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !res.correct() || res.attempted == 0 {
				t.Fatalf("attempted %d, failed %d: %v", res.attempted, res.failed, res.failures)
			}
			for _, defs := range [][]metricDef{endToEnd, perLayer} {
				var out bytes.Buffer
				if err := res.print(&out, cfg, defs); err != nil {
					t.Fatal(err)
				}
				lines := bytes.Split(bytes.TrimSpace(out.Bytes()), []byte("\n"))
				var line struct {
					Correct           bool
					Attempted, Failed int
					Metrics           map[string]struct {
						Value float64
						Unit  string
					}
				}
				if err := json.Unmarshal(lines[len(lines)-1], &line); err != nil {
					t.Fatalf("last line %q: %v", lines[len(lines)-1], err)
				}
				if !line.Correct || line.Failed != 0 || len(line.Metrics) != len(defs) {
					t.Fatalf("result line %s", lines[len(lines)-1])
				}
				for _, d := range defs {
					m, ok := line.Metrics[d.name]
					if !ok || m.Unit != d.unit || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
						t.Errorf("metric %s: got %+v, want a finite value in %s", d.name, m, d.unit)
					}
				}
			}
			for _, d := range endToEnd {
				if res.metrics[d.name] <= 0 {
					t.Errorf("%s = %v, want > 0", d.name, res.metrics[d.name])
				}
			}
			var sum float64
			for _, l := range layers {
				sum += res.metrics["cpu_pct."+l]
			}
			if res.metrics["profile.cpu_ms_per_op"] > 0 && math.Abs(sum-100) > 1e-6 {
				t.Errorf("CPU ledger sums to %v%%", sum)
			}
			raw, err := os.ReadFile(filepath.Join(dir, name+".trace.json"))
			if err != nil {
				t.Fatal(err)
			}
			var trace struct {
				TraceEvents []struct {
					Name, Cat, Ph string
					Dur           float64
				}
			}
			if err := json.Unmarshal(raw, &trace); err != nil || len(trace.TraceEvents) == 0 {
				t.Fatalf("trace: %d events, %v", len(trace.TraceEvents), err)
			}
		})
	}
}
