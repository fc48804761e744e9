// Command paper regenerates the tables and figures of "Revisiting Tag
// Collision Problem in RFID Systems" (ICPP 2010).
//
// Usage:
//
//	paper -exp all                      # everything, paper-scale (minutes)
//	paper -exp table7 -rounds 20        # one artifact, fewer rounds
//	paper -exp fig8 -maxcase 2          # cases I–II only
//	paper -exp fig7 -chart              # render figures as ASCII charts too
//	paper -exp all -out results/        # also write one file per artifact
//	paper -list                         # show available experiment ids
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	rfid "repro"
)

func main() {
	var (
		exp     = flag.String("exp", "all", "experiment id or 'all'")
		rounds  = flag.Int("rounds", 0, "Monte-Carlo rounds (0 = paper's 100)")
		maxCase = flag.Int("maxcase", 0, "limit Table VI cases to 1..4 (0 = all; case IV has 50000 tags)")
		seed    = flag.Uint64("seed", 1, "master seed")
		workers = flag.Int("workers", 0, "concurrent runs per artifact: Monte-Carlo rounds and independent runs (0 = GOMAXPROCS); output does not depend on it")
		chart   = flag.Bool("chart", false, "render data series as ASCII bar charts as well")
		outDir  = flag.String("out", "", "directory to write one <id>.txt per artifact (created if needed)")
		list    = flag.Bool("list", false, "list experiment ids and exit")
	)
	flag.Parse()

	if *list {
		for _, r := range rfid.Experiments() {
			fmt.Printf("%-20s %s\n", r.ID, r.Title)
		}
		return
	}
	if *outDir != "" {
		if err := os.MkdirAll(*outDir, 0o755); err != nil {
			fmt.Fprintln(os.Stderr, "paper:", err)
			os.Exit(1)
		}
	}

	opts := rfid.ExperimentOptions{
		Rounds: *rounds, MaxCase: *maxCase, Seed: *seed, Workers: *workers,
	}

	run := func(r rfid.Experiment) {
		id, title := r.ID, r.Title
		start := time.Now()
		out, csv, err := rfid.RenderExperiment(r, opts)
		if err != nil {
			fmt.Fprintf(os.Stderr, "paper: %s: %v\n", id, err)
			os.Exit(1)
		}
		if *chart {
			out += chartify(out)
		}
		fmt.Printf("### %s — %s\n\n%s\n(%.1fs)\n\n", id, title, out, time.Since(start).Seconds())
		if *outDir != "" {
			body := fmt.Sprintf("%s — %s\nrounds=%d maxcase=%d seed=%d\n\n%s",
				id, title, *rounds, *maxCase, *seed, out)
			writeArtifact(filepath.Join(*outDir, id+".txt"), body)
			if csv != "" {
				writeArtifact(filepath.Join(*outDir, id+".csv"), csv)
			}
		}
	}

	if *exp == "all" {
		fmt.Print("(artifacts share one run's aggregates: each (N.Ns) credits a shared configuration to the first artifact that needs it)\n\n")
		for _, r := range rfid.Experiments() {
			run(r)
		}
		return
	}
	for _, r := range rfid.Experiments() {
		if r.ID == *exp {
			run(r)
			return
		}
	}
	fmt.Fprintf(os.Stderr, "paper: unknown experiment %q (use -list)\n", *exp)
	os.Exit(1)
}

func writeArtifact(path, body string) {
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "paper: write %s: %v\n", path, err)
		os.Exit(1)
	}
}

// chartify re-renders any "# title / # x=..." series blocks found in the
// text as log-scale ASCII charts.
func chartify(text string) string {
	var charts []string
	for _, block := range splitSeriesBlocks(text) {
		if c := rfid.RenderSeriesChart(block, 48); c != "" {
			charts = append(charts, c)
		}
	}
	if len(charts) == 0 {
		return ""
	}
	return "\n" + strings.Join(charts, "\n")
}

func splitSeriesBlocks(text string) []string {
	var blocks []string
	lines := strings.Split(text, "\n")
	var cur []string
	flush := func() {
		if len(cur) > 0 {
			blocks = append(blocks, strings.Join(cur, "\n"))
			cur = nil
		}
	}
	inBlock := false
	for _, l := range lines {
		switch {
		case strings.HasPrefix(l, "# "):
			if !inBlock {
				flush()
				inBlock = true
			}
			cur = append(cur, l)
		case inBlock && strings.TrimSpace(l) != "" && !strings.HasPrefix(l, "#"):
			cur = append(cur, l)
		default:
			inBlock = false
			flush()
		}
	}
	flush()
	return blocks
}
