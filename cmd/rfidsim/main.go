// Command rfidsim runs one RFID identification experiment and prints its
// aggregate metrics.
//
// Usage:
//
//	rfidsim -tags 500 -alg fsa -frame 300 -detector qcd -strength 8 -rounds 100
//	rfidsim -tags 5000 -alg bt -detector crccd
//	rfidsim -tags 500 -alg fsa -frame 300 -detector qcd -compare   # vs CRC-CD
//	rfidsim -tags 500 -alg fsa -frame 300 -trace out.json          # chrome://tracing export
//	rfidsim -tags 50000 -alg fsa -frame 30000 -stat-mode           # vectorised stat mode (fast sweeps)
//	rfidsim -sweep spec.json                                       # parameter-grid sweep, merged table
//	rfidsim -sweep spec.json -csv                                  # ... as CSV
//	rfidsim -scenario spec.json                                    # streaming warehouse scenario (internal/scenario)
//
// With -trace (Chrome trace-event JSON) or -trace-jsonl (one event per
// line) the run records experiment, round and frame spans into a
// one-trace span store holding at most -trace-cap spans (further spans
// are dropped). On a -timeout abort the partial aggregate and any
// recorded trace are still flushed before exiting 2, so a too-slow
// experiment is not a total loss.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	rfid "repro"
	"repro/internal/obs"
	"repro/internal/report"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main with injectable streams and an exit code, for tests.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("rfidsim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		tags       = fs.Int("tags", 500, "number of tags")
		alg        = fs.String("alg", rfid.AlgFSA, "algorithm: fsa | bt | qadaptive | qt")
		frame      = fs.Int("frame", 300, "FSA frame size")
		policy     = fs.String("policy", rfid.PolicyFixed, "FSA frame policy: fixed | schoute | lowerbound | optimal")
		detector   = fs.String("detector", rfid.DetQCD, "detector: qcd | crccd | oracle")
		strength   = fs.Int("strength", 8, "QCD strength in bits")
		crcName    = fs.String("crc", "CRC-32/IEEE", "CRC preset for crccd")
		rounds     = fs.Int("rounds", 100, "Monte-Carlo rounds")
		seed       = fs.Uint64("seed", 1, "master seed")
		tau        = fs.Float64("tau", 1, "μs per bit")
		workers    = fs.Int("workers", 0, "parallel rounds (0 = GOMAXPROCS)")
		confirm    = fs.Bool("confirm-empty", true, "FSA reader terminates on an all-idle frame")
		statMode   = fs.Bool("stat-mode", false, "vectorised Monte-Carlo mode: same distributions, no per-tag simulation (framed ALOHA, ideal channel only)")
		ber        = fs.Float64("ber", 0, "channel bit-error rate (exact fsa, edfsa, qadaptive)")
		capture    = fs.Float64("capture", 0, "capture-effect probability (exact fsa, edfsa, qadaptive)")
		compare    = fs.Bool("compare", false, "also run CRC-CD on the same workload and report EI")
		sweepPath  = fs.String("sweep", "", "run a parameter-grid sweep from this JSON spec file (\"-\" = stdin) instead of a single experiment")
		scenPath   = fs.String("scenario", "", "run a streaming warehouse scenario from this JSON spec file (\"-\" = stdin) instead of a single experiment")
		sweepCSV   = fs.Bool("csv", false, "with -sweep, emit the merged output as CSV")
		jsonOut    = fs.Bool("json", false, "emit machine-readable JSON instead of a table")
		timeout    = fs.Duration("timeout", 0, "abort the experiment after this duration (0 = no limit)")
		traceOut   = fs.String("trace", "", "write a Chrome trace-event JSON run trace to this file")
		traceJSONL = fs.String("trace-jsonl", "", "write the run trace as JSONL to this file")
		traceCap   = fs.Int("trace-cap", 1<<16, "trace capacity in spans (further spans are dropped)")
		progress   = fs.Bool("progress", false, "render a live per-round status line on stderr")
		auditFlag  = fs.Bool("audit", false, "shadow every verdict with the ground-truth oracle and report the confusion summary")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	if *sweepPath != "" {
		return runSweep(ctx, *sweepPath, *workers, *jsonOut, *sweepCSV, *progress, stdout, stderr)
	}
	if *scenPath != "" {
		return runScenario(ctx, *scenPath, *workers, *jsonOut, *progress, stdout, stderr)
	}

	var traces *obs.TraceStore
	if *traceOut != "" || *traceJSONL != "" {
		traces = obs.NewTraceStore(1, *traceCap)
		ctx = obs.WithSpan(ctx, traces.StartTrace("rfidsim"))
	}

	var auditor *rfid.Auditor
	if *auditFlag {
		auditor = rfid.NewAuditor(0)
		ctx = rfid.WithAudit(ctx, auditor)
	}
	var bus *rfid.TelemetryBus
	var progressDone chan struct{}
	if *progress {
		bus = rfid.NewTelemetryBus(1024)
		ctx = rfid.WithTelemetry(ctx, bus)
		sub := bus.Subscribe(4096, 0)
		progressDone = make(chan struct{})
		go renderProgress(stderr, sub, progressDone)
	}
	// finishProgress retires the status line once the experiment (and,
	// with -compare, its baseline) is over, before the report prints.
	finishProgress := func() {
		if bus != nil {
			bus.Close()
			<-progressDone
			bus = nil
		}
	}
	defer finishProgress()
	flushTrace := func() bool {
		ok := true
		if *traceOut != "" {
			if err := writeTraceFile(*traceOut, traces.WriteChromeTrace); err != nil {
				fmt.Fprintln(stderr, "rfidsim: trace:", err)
				ok = false
			}
		}
		if *traceJSONL != "" {
			if err := writeTraceFile(*traceJSONL, traces.WriteJSONL); err != nil {
				fmt.Fprintln(stderr, "rfidsim: trace:", err)
				ok = false
			}
		}
		return ok
	}

	cfg := rfid.Config{
		Tags: *tags, Seed: *seed, Rounds: *rounds,
		Algorithm: *alg, FrameSize: *frame, FramePolicy: *policy,
		Detector: *detector, Strength: *strength, CRCName: *crcName,
		TauMicros: *tau, Workers: *workers, ConfirmEmpty: *confirm,
		BER: *ber, CaptureProb: *capture,
	}
	if *statMode {
		cfg.Mode = rfid.ModeStat
	}
	agg, err := rfid.RunContext(ctx, cfg)
	finishProgress()
	if errors.Is(err, context.DeadlineExceeded) {
		// Flush whatever completed before the -timeout abort.
		fmt.Fprintf(stderr, "rfidsim: experiment aborted: exceeded -timeout %s; flushing partial results (%d/%d rounds)\n",
			*timeout, agg.Completed, cfg.Rounds)
		if *jsonOut {
			printJSON(stdout, stderr, ctx, cfg, agg, false, *timeout, auditor)
		} else if agg.Completed > 0 {
			printAggregate(stdout, cfg, agg)
		}
		flushTrace()
		return 2
	}
	if err != nil {
		fmt.Fprintf(stderr, "rfidsim: %v\n", err)
		return 1
	}

	if *jsonOut {
		if code := printJSON(stdout, stderr, ctx, cfg, agg, *compare, *timeout, auditor); code != 0 {
			return code
		}
	} else {
		printAggregate(stdout, cfg, agg)
		if *compare {
			base := cfg
			base.Detector = rfid.DetCRCCD
			baseAgg, err := rfid.RunContext(ctx, base)
			if err != nil {
				if code := baselineErr(stderr, err, *timeout); code != 0 {
					flushTrace()
					return code
				}
			}
			ei := (baseAgg.TimeMicros.Mean() - agg.TimeMicros.Mean()) / baseAgg.TimeMicros.Mean()
			fmt.Fprintf(stdout, "\nbaseline CRC-CD time: %.4g μs\nefficiency improvement (EI): %.2f%%\n",
				baseAgg.TimeMicros.Mean(), 100*ei)
		}
		if auditor != nil {
			printAuditReport(stdout, auditor.Report())
		}
	}
	if !flushTrace() {
		return 1
	}
	return 0
}

// loadSpec strictly decodes a JSON spec from path ("-" reads stdin):
// an unknown field is an error, as it is for rfidd's submission bodies.
func loadSpec[T any](path string) (T, error) {
	var spec T
	in := io.Reader(os.Stdin)
	if path != "-" {
		f, err := os.Open(path)
		if err != nil {
			return spec, err
		}
		defer f.Close()
		in = f
	}
	dec := json.NewDecoder(in)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		return spec, fmt.Errorf("parsing %s: %w", path, err)
	}
	return spec, nil
}

// writeTraceFile writes the store's one trace to path in the format
// write produces.
func writeTraceFile(path string, write func(io.Writer, string) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f, ""); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// baselineErr reports a -compare baseline failure and returns the exit
// code (2 for a timeout abort, 1 otherwise).
func baselineErr(stderr io.Writer, err error, timeout time.Duration) int {
	if errors.Is(err, context.DeadlineExceeded) {
		fmt.Fprintf(stderr, "rfidsim (baseline): experiment aborted: exceeded -timeout %s\n", timeout)
		return 2
	}
	fmt.Fprintf(stderr, "rfidsim (baseline): %v\n", err)
	return 1
}

// renderProgress consumes the telemetry stream and keeps one live
// status line on w, rewritten in place per completed round. The line
// carries process health (goroutines, heap, GC) alongside simulation
// progress so a long run's resource trajectory is visible at a glance.
func renderProgress(w io.Writer, sub *rfid.TelemetrySubscription, done chan<- struct{}) {
	defer close(done)
	rc := obs.NewRuntimeCollector()
	audits := 0
	printed := false
	for ev := range sub.Events() {
		switch ev.Type {
		case "audit":
			audits++
		case "round":
			rs := rc.Stats()
			fmt.Fprintf(w, "\rround %v/%v  slots %v  identified %v  audit hits %d  | gor %d  heap %s  gc %d    ",
				ev.Data["completed"], ev.Data["rounds"], ev.Data["slots"], ev.Data["identified"], audits,
				rs.Goroutines, fmtBytes(rs.HeapInuse), rs.GCCycles)
			printed = true
		}
	}
	if printed {
		fmt.Fprintln(w)
	}
}

// fmtBytes renders a byte count with a binary unit suffix.
func fmtBytes(n uint64) string {
	switch {
	case n >= 1<<30:
		return fmt.Sprintf("%.1fGiB", float64(n)/(1<<30))
	case n >= 1<<20:
		return fmt.Sprintf("%.1fMiB", float64(n)/(1<<20))
	case n >= 1<<10:
		return fmt.Sprintf("%.1fKiB", float64(n)/(1<<10))
	default:
		return fmt.Sprintf("%dB", n)
	}
}

// printAuditReport renders the verdict confusion summary per detector.
func printAuditReport(w io.Writer, rep rfid.AuditReport) {
	t := report.NewTable("verdict audit (oracle shadow)",
		"detector", "correct", "false single", "false collided", "false idle",
		"fs rate", "fs rate expected")
	for _, d := range rep.Detectors {
		t.AddRow(d.Detector,
			fmt.Sprintf("%d", d.Correct),
			fmt.Sprintf("%d", d.FalseSingle),
			fmt.Sprintf("%d", d.FalseCollision),
			fmt.Sprintf("%d", d.FalseIdle),
			report.F(d.FalseSingleRate, 6),
			report.F(d.ExpectedFalseSingleRate, 6))
	}
	fmt.Fprint(w, "\n"+t.Render())
	if n := len(rep.Exemplars); n > 0 {
		fmt.Fprintf(w, "%d misclassified slot(s) captured; first: %+v\n", n, rep.Exemplars[0])
	}
}

// jsonSummary wraps the shared aggregate encoding with the CLI-only
// baseline comparison, partial-run marker and optional audit report.
type jsonSummary struct {
	report.AggregateSummary
	BaselineEI      *float64          `json:"baseline_ei,omitempty"`
	Partial         bool              `json:"partial,omitempty"`
	RoundsCompleted int               `json:"rounds_completed"`
	Audit           *rfid.AuditReport `json:"audit,omitempty"`
}

func printJSON(stdout, stderr io.Writer, ctx context.Context, cfg rfid.Config, a *rfid.Aggregate, compare bool, timeout time.Duration, auditor *rfid.Auditor) int {
	out := jsonSummary{
		AggregateSummary: report.NewAggregateSummary(cfg, a),
		Partial:          a.Completed < a.Cfg.Rounds,
		RoundsCompleted:  a.Completed,
	}
	if auditor != nil {
		rep := auditor.Report()
		out.Audit = &rep
	}
	if compare {
		base := cfg
		base.Detector = rfid.DetCRCCD
		baseAgg, err := rfid.RunContext(ctx, base)
		if err != nil {
			return baselineErr(stderr, err, timeout)
		}
		ei := (baseAgg.TimeMicros.Mean() - a.TimeMicros.Mean()) / baseAgg.TimeMicros.Mean()
		out.BaselineEI = &ei
	}
	enc := json.NewEncoder(stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(out); err != nil {
		fmt.Fprintln(stderr, "rfidsim:", err)
		return 1
	}
	return 0
}

func printAggregate(w io.Writer, cfg rfid.Config, a *rfid.Aggregate) {
	title := fmt.Sprintf("%s + %s: %d tags, %d rounds", cfg.Algorithm, cfg.Detector, cfg.Tags, cfg.Rounds)
	if a.Completed < cfg.Rounds {
		title += fmt.Sprintf(" (partial: %d completed)", a.Completed)
	}
	t := report.NewTable(title, "metric", "mean", "stddev", "ci95")
	row := func(name string, mean, sd, ci float64, dec int) {
		t.AddRow(name, report.F(mean, dec), report.F(sd, dec), report.F(ci, dec))
	}
	row("slots", a.Slots.Mean(), a.Slots.StdDev(), a.Slots.CI95(), 1)
	row("frames", a.Frames.Mean(), a.Frames.StdDev(), a.Frames.CI95(), 1)
	row("idle slots", a.Idle.Mean(), a.Idle.StdDev(), a.Idle.CI95(), 1)
	row("single slots", a.Single.Mean(), a.Single.StdDev(), a.Single.CI95(), 1)
	row("collided slots", a.Collided.Mean(), a.Collided.StdDev(), a.Collided.CI95(), 1)
	row("throughput λ", a.Throughput.Mean(), a.Throughput.StdDev(), a.Throughput.CI95(), 4)
	row("time (μs)", a.TimeMicros.Mean(), a.TimeMicros.StdDev(), a.TimeMicros.CI95(), 0)
	row("accuracy", a.Accuracy.Mean(), a.Accuracy.StdDev(), a.Accuracy.CI95(), 4)
	row("utilisation rate", a.UR.Mean(), a.UR.StdDev(), a.UR.CI95(), 4)
	row("mean delay (μs)", a.Delay.Mean(), a.Delay.StdDev(), 0, 0)
	fmt.Fprint(w, t.Render())
}
