package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

func TestRunSuccessTable(t *testing.T) {
	var out, errb bytes.Buffer
	code := run([]string{"-tags", "50", "-rounds", "3", "-frame", "32"}, &out, &errb)
	if code != 0 {
		t.Fatalf("exit code = %d, stderr: %s", code, errb.String())
	}
	if !strings.Contains(out.String(), "throughput") {
		t.Fatalf("table output missing metrics:\n%s", out.String())
	}
	if strings.Contains(out.String(), "partial") {
		t.Fatalf("complete run must not be marked partial:\n%s", out.String())
	}
}

func TestRunJSONReportsCompletion(t *testing.T) {
	var out, errb bytes.Buffer
	code := run([]string{"-tags", "50", "-rounds", "3", "-frame", "32", "-json"}, &out, &errb)
	if code != 0 {
		t.Fatalf("exit code = %d, stderr: %s", code, errb.String())
	}
	var got map[string]any
	if err := json.Unmarshal(out.Bytes(), &got); err != nil {
		t.Fatalf("output is not JSON: %v\n%s", err, out.String())
	}
	if got["rounds_completed"] != float64(3) {
		t.Fatalf("rounds_completed = %v, want 3", got["rounds_completed"])
	}
	if _, partial := got["partial"]; partial {
		t.Fatalf("complete run must omit the partial marker: %v", got)
	}
}

// TestRunAuditTable checks the -audit flag end to end in table mode:
// a low-strength QCD run must print the confusion summary with real
// false-single counts.
func TestRunAuditTable(t *testing.T) {
	var out, errb bytes.Buffer
	code := run([]string{
		"-tags", "200", "-rounds", "10", "-frame", "64",
		"-detector", "qcd", "-strength", "4", "-audit",
	}, &out, &errb)
	if code != 0 {
		t.Fatalf("exit code = %d, stderr: %s", code, errb.String())
	}
	got := out.String()
	if !strings.Contains(got, "verdict audit (oracle shadow)") {
		t.Fatalf("audit table missing:\n%s", got)
	}
	for _, col := range []string{"false single", "fs rate expected", "QCD-4"} {
		if !strings.Contains(got, col) {
			t.Errorf("audit table missing %q:\n%s", col, got)
		}
	}
}

// TestRunAuditJSON checks the machine-readable audit report: the JSON
// summary grows an "audit" object whose confusion counts are populated
// and whose expected false-single mass is positive.
func TestRunAuditJSON(t *testing.T) {
	var out, errb bytes.Buffer
	code := run([]string{
		"-tags", "200", "-rounds", "10", "-frame", "64",
		"-detector", "qcd", "-strength", "4", "-audit", "-json",
	}, &out, &errb)
	if code != 0 {
		t.Fatalf("exit code = %d, stderr: %s", code, errb.String())
	}
	var got struct {
		Audit *struct {
			Detectors []map[string]any `json:"detectors"`
			Exemplars []map[string]any `json:"exemplars"`
		} `json:"audit"`
	}
	if err := json.Unmarshal(out.Bytes(), &got); err != nil {
		t.Fatalf("output is not JSON: %v\n%s", err, out.String())
	}
	if got.Audit == nil || len(got.Audit.Detectors) != 1 {
		t.Fatalf("audit block = %+v", got.Audit)
	}
	d := got.Audit.Detectors[0]
	if d["detector"] != "QCD-4" {
		t.Errorf("detector = %v", d["detector"])
	}
	if c, _ := d["correct"].(float64); c == 0 {
		t.Errorf("correct = %v, want > 0", d["correct"])
	}
	if e, _ := d["expected_false_singles"].(float64); e <= 0 {
		t.Errorf("expected_false_singles = %v, want > 0", d["expected_false_singles"])
	}
	// Without -audit the key must be absent entirely.
	out.Reset()
	errb.Reset()
	if code := run([]string{"-tags", "50", "-rounds", "2", "-frame", "32", "-json"}, &out, &errb); code != 0 {
		t.Fatalf("exit code = %d, stderr: %s", code, errb.String())
	}
	var plain map[string]any
	if err := json.Unmarshal(out.Bytes(), &plain); err != nil {
		t.Fatal(err)
	}
	if _, ok := plain["audit"]; ok {
		t.Error("audit key present without -audit")
	}
}

// TestRunProgress checks the -progress live status line: it renders on
// stderr with carriage-return rewrites and reaches the final round.
func TestRunProgress(t *testing.T) {
	var out, errb bytes.Buffer
	code := run([]string{"-tags", "50", "-rounds", "3", "-frame", "32", "-progress"}, &out, &errb)
	if code != 0 {
		t.Fatalf("exit code = %d, stderr: %s", code, errb.String())
	}
	got := errb.String()
	if !strings.Contains(got, "\rround ") {
		t.Fatalf("no status-line rewrites on stderr:\n%q", got)
	}
	if !strings.Contains(got, "round 3/3") {
		t.Fatalf("status line never reached the final round:\n%q", got)
	}
	// The result table still lands intact on stdout.
	if !strings.Contains(out.String(), "throughput") {
		t.Fatalf("table output missing after -progress:\n%s", out.String())
	}
}

func TestRunBadFlagExits2(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-no-such-flag"}, &out, &errb); code != 2 {
		t.Fatalf("exit code = %d, want 2", code)
	}
}

// TestTimeoutFlushesPartialResultsAndTrace exercises the -timeout abort
// path: the run must exit 2, report how many rounds completed, and still
// write a well-formed Chrome trace file.
func TestTimeoutFlushesPartialResultsAndTrace(t *testing.T) {
	tracePath := filepath.Join(t.TempDir(), "out.json")
	var out, errb bytes.Buffer
	code := run([]string{
		"-tags", "500", "-rounds", "100000", "-frame", "300",
		"-timeout", "50ms", "-workers", "1", "-trace", tracePath,
	}, &out, &errb)
	if code != 2 {
		t.Fatalf("exit code = %d, want 2; stderr: %s", code, errb.String())
	}
	if !strings.Contains(errb.String(), "flushing partial results") {
		t.Fatalf("stderr missing partial-flush notice:\n%s", errb.String())
	}

	raw, err := os.ReadFile(tracePath)
	if err != nil {
		t.Fatalf("trace file not written: %v", err)
	}
	var trace struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &trace); err != nil {
		t.Fatalf("trace file is not valid Chrome trace JSON: %v", err)
	}
	if trace.TraceEvents == nil {
		t.Fatal("traceEvents must be an array even on an aborted run")
	}
}

// TestTimeoutPartialJSON checks the machine-readable flavour of the
// abort path: partial results are emitted as JSON with the marker set.
func TestTimeoutPartialJSON(t *testing.T) {
	var out, errb bytes.Buffer
	code := run([]string{
		"-tags", "500", "-rounds", "100000", "-frame", "300",
		"-timeout", "50ms", "-workers", "1", "-json",
	}, &out, &errb)
	if code != 2 {
		t.Fatalf("exit code = %d, want 2; stderr: %s", code, errb.String())
	}
	var got map[string]any
	if err := json.Unmarshal(out.Bytes(), &got); err != nil {
		t.Fatalf("partial output is not JSON: %v\n%s", err, out.String())
	}
	if got["partial"] != true {
		t.Fatalf("partial = %v, want true", got["partial"])
	}
	rc, ok := got["rounds_completed"].(float64)
	if !ok || rc >= 100000 {
		t.Fatalf("rounds_completed = %v, want < 100000", got["rounds_completed"])
	}
}

func TestTraceFileOnSuccess(t *testing.T) {
	dir := t.TempDir()
	chrome := filepath.Join(dir, "trace.json")
	jsonl := filepath.Join(dir, "trace.jsonl")
	var out, errb bytes.Buffer
	code := run([]string{
		"-tags", "50", "-rounds", "4", "-frame", "32",
		"-trace", chrome, "-trace-jsonl", jsonl,
	}, &out, &errb)
	if code != 0 {
		t.Fatalf("exit code = %d, stderr: %s", code, errb.String())
	}

	raw, err := os.ReadFile(chrome)
	if err != nil {
		t.Fatalf("chrome trace not written: %v", err)
	}
	var trace struct {
		TraceEvents []struct {
			Name  string  `json:"name"`
			Phase string  `json:"ph"`
			TS    float64 `json:"ts"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &trace); err != nil {
		t.Fatalf("chrome trace invalid: %v", err)
	}
	var rounds, frames int
	for _, ev := range trace.TraceEvents {
		switch ev.Name {
		case "round":
			rounds++
		case "frame":
			frames++
		}
	}
	if rounds != 4 {
		t.Fatalf("trace has %d round spans, want 4", rounds)
	}
	if frames == 0 {
		t.Fatal("trace has no frame spans")
	}

	lines, err := os.ReadFile(jsonl)
	if err != nil {
		t.Fatalf("jsonl trace not written: %v", err)
	}
	for i, ln := range strings.Split(strings.TrimSpace(string(lines)), "\n") {
		var ev map[string]any
		if err := json.Unmarshal([]byte(ln), &ev); err != nil {
			t.Fatalf("jsonl line %d invalid: %v", i+1, err)
		}
	}
}

// TestRunSweepCLI drives the -sweep path end to end: a 2×2 grid spec
// from a file, rendered as the merged table and as CSV.
func TestRunSweepCLI(t *testing.T) {
	spec := `{
		"name": "cli-smoke",
		"base": {"Tags": 40, "Seed": 3, "Rounds": 2, "Algorithm": "fsa", "FrameSize": 32, "Detector": "qcd", "Strength": 8},
		"axes": [
			{"field": "tags", "ints": [30, 60]},
			{"field": "strength", "ints": [4, 8]}
		]
	}`
	path := filepath.Join(t.TempDir(), "spec.json")
	if err := os.WriteFile(path, []byte(spec), 0o644); err != nil {
		t.Fatal(err)
	}

	var out, errb bytes.Buffer
	code := run([]string{"-sweep", path}, &out, &errb)
	if code != 0 {
		t.Fatalf("exit code = %d, stderr: %s", code, errb.String())
	}
	got := out.String()
	for _, want := range []string{"sweep cli-smoke", "tags", "strength", "throughput", "run"} {
		if !strings.Contains(got, want) {
			t.Errorf("merged table lacks %q:\n%s", want, got)
		}
	}

	out.Reset()
	errb.Reset()
	if code := run([]string{"-sweep", path, "-csv"}, &out, &errb); code != 0 {
		t.Fatalf("-csv exit code = %d, stderr: %s", code, errb.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if len(lines) != 5 {
		t.Fatalf("merged CSV has %d lines, want 5:\n%s", len(lines), out.String())
	}
	if !strings.HasPrefix(lines[0], "tags,strength,") {
		t.Errorf("CSV header %q", lines[0])
	}

	out.Reset()
	errb.Reset()
	if code := run([]string{"-sweep", path, "-json"}, &out, &errb); code != 0 {
		t.Fatalf("-json exit code = %d, stderr: %s", code, errb.String())
	}
	var cells []map[string]any
	if err := json.Unmarshal(out.Bytes(), &cells); err != nil {
		t.Fatalf("-json output invalid: %v\n%s", err, out.String())
	}
	if len(cells) != 4 {
		t.Fatalf("-json emitted %d cells, want 4", len(cells))
	}
	for _, c := range cells {
		if c["status"] != "done" || c["result"] == nil {
			t.Errorf("cell %v not done with a result", c["label"])
		}
	}

	// A malformed spec file must fail cleanly.
	bad := filepath.Join(t.TempDir(), "bad.json")
	if err := os.WriteFile(bad, []byte("{"), 0o644); err != nil {
		t.Fatal(err)
	}
	if code := run([]string{"-sweep", bad}, &out, &errb); code == 0 {
		t.Error("malformed spec accepted")
	}
}

// TestRunSweepRejectsUnknownField: a sweep spec with a misspelled field
// exits 1 instead of running with the field silently dropped.
func TestRunSweepRejectsUnknownField(t *testing.T) {
	spec := `{
		"name": "typo",
		"base": {"Tags": 40, "Seed": 3, "Rounds": 2, "Algorithm": "fsa", "FrameSize": 32, "Detector": "qcd"},
		"axis": [{"field": "tags", "ints": [30, 60]}]
	}`
	path := filepath.Join(t.TempDir(), "spec.json")
	if err := os.WriteFile(path, []byte(spec), 0o644); err != nil {
		t.Fatal(err)
	}
	var out, errb bytes.Buffer
	if code := run([]string{"-sweep", path}, &out, &errb); code != 1 {
		t.Fatalf("exit code = %d, want 1; stdout: %s", code, out.String())
	}
	if !strings.Contains(errb.String(), `unknown field "axis"`) {
		t.Errorf("stderr does not name the unknown field: %s", errb.String())
	}
}

// TestRunScenarioCLI drives the -scenario path: a small streaming
// warehouse spec from a file, rendered as the summary table and as
// JSON, with -workers pinned results identical to the default.
func TestRunScenarioCLI(t *testing.T) {
	spec := `{
		"name": "cli-smoke",
		"side_metres": 24, "readers": 16,
		"read_range_metres": 5, "interference_radius_metres": 9,
		"arrivals_per_second": 4000, "dwell_micros": 150000,
		"duration_micros": 200000, "session_micros": 2000, "seed": 7
	}`
	path := filepath.Join(t.TempDir(), "scn.json")
	if err := os.WriteFile(path, []byte(spec), 0o644); err != nil {
		t.Fatal(err)
	}

	var out, errb bytes.Buffer
	if code := run([]string{"-scenario", path}, &out, &errb); code != 0 {
		t.Fatalf("exit code = %d, stderr: %s", code, errb.String())
	}
	for _, want := range []string{"cli-smoke", "miss rate", "first-read latency mean"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("table output lacks %q:\n%s", want, out.String())
		}
	}

	decode := func(args ...string) map[string]any {
		out.Reset()
		errb.Reset()
		if code := run(args, &out, &errb); code != 0 {
			t.Fatalf("%v exit code = %d, stderr: %s", args, code, errb.String())
		}
		var res map[string]any
		if err := json.Unmarshal(out.Bytes(), &res); err != nil {
			t.Fatalf("-json output invalid: %v\n%s", err, out.String())
		}
		return res
	}
	res := decode("-scenario", path, "-json")
	if n, _ := res["read"].(float64); n == 0 {
		t.Errorf("JSON result read nothing: %v", res)
	}
	// Worker count is scheduling only: pinning one worker must not move
	// a single tally.
	serial := decode("-scenario", path, "-json", "-workers", "1")
	delete(res["spec"].(map[string]any), "workers")
	delete(serial["spec"].(map[string]any), "workers")
	if !reflect.DeepEqual(res, serial) {
		t.Errorf("-workers 1 diverged:\n%v\nvs\n%v", serial, res)
	}

	// A malformed spec file must fail cleanly.
	bad := filepath.Join(t.TempDir(), "bad.json")
	if err := os.WriteFile(bad, []byte(`{"readers": 7}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if code := run([]string{"-scenario", bad}, &out, &errb); code == 0 {
		t.Error("invalid spec accepted")
	}
}
