// Command rfidtop is a live terminal dashboard for a running rfidd: a
// top-style view of the worker pool, the latency decomposition, the
// result cache and the sweeps in flight, refreshed in place from
// /metrics, with a tail of the newest sweep's per-cell SSE stream at
// the bottom.
//
// Usage:
//
//	rfidtop -addr http://localhost:8080 -interval 1s
//
// -sweep pins the event tail to one sweep ID (default: the newest
// running sweep, falling back to the newest overall). -frames N
// renders N frames and exits, for scripted or CI use; -once renders a
// single plain-text frame (no escape codes, no event tail) and exits,
// for cron jobs and pipes. By default rfidtop runs until interrupted.
//
// Rates ("recent" columns) come from the daemon's metrics history
// (/v1/metrics/history), so the first frame shows real rates instead
// of zeros and a reconnect never shows garbage deltas; a failed history
// poll is reported like a failed /metrics poll. Firing SLO alerts
// (/v1/alerts) get their own pane, omitted when the daemon rejected its
// SLO policy.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/obs/slo"
	"repro/internal/obs/tsdb"
	"repro/internal/server"
)

func main() {
	var (
		addr     = flag.String("addr", "http://localhost:8080", "rfidd base URL")
		interval = flag.Duration("interval", time.Second, "poll/refresh interval")
		sweepID  = flag.String("sweep", "", "sweep ID to tail (default: newest)")
		tailLen  = flag.Int("events", 10, "event-tail length")
		frames   = flag.Int("frames", 0, "render this many frames then exit (0 = run until interrupted)")
		once     = flag.Bool("once", false, "render one plain-text frame and exit (implies -frames 1, no event tail)")
	)
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	d := &dash{
		client:   server.NewClient(*addr),
		addr:     *addr,
		interval: *interval,
		pinned:   *sweepID,
		plain:    *once,
		out:      os.Stdout,
		tail:     newTail(*tailLen),
	}
	n := *frames
	if *once {
		n = 1
	}
	if err := d.run(ctx, n); err != nil && ctx.Err() == nil {
		fmt.Fprintln(os.Stderr, "rfidtop:", err)
		os.Exit(1)
	}
	if !*once {
		fmt.Print("\x1b[0m\n")
	}
}

// dash is the dashboard state carried between frames.
type dash struct {
	client   *server.Client
	addr     string
	interval time.Duration
	pinned   string // -sweep flag; "" = auto
	plain    bool   // -once: no escape codes, no event tail
	out      io.Writer

	tail       *tail
	tailTarget string             // sweep currently tailed
	tailStop   context.CancelFunc // stops the tailer goroutine
}

func (d *dash) run(ctx context.Context, frames int) error {
	defer func() {
		if d.tailStop != nil {
			d.tailStop()
		}
	}()
	tick := time.NewTicker(d.interval)
	defer tick.Stop()
	for n := 0; ; {
		if err := d.frame(ctx); err != nil {
			// A dead daemon mid-session is worth showing, not exiting over
			// (unless we never reached it at all).
			if n == 0 {
				return err
			}
			fmt.Fprintf(d.out, "\x1b[31mpoll failed: %v\x1b[0m\n", err)
		}
		n++
		if frames > 0 && n >= frames {
			return nil
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-tick.C:
		}
	}
}

// frame polls the daemon and redraws the screen in place.
func (d *dash) frame(ctx context.Context) error {
	pctx, cancel := context.WithTimeout(ctx, d.interval+5*time.Second)
	defer cancel()
	text, err := d.client.Metrics(pctx)
	if err != nil {
		return err
	}
	m := parseProm(text)
	sweeps, err := d.client.Sweeps().List(pctx, "")
	if err != nil {
		return err
	}
	rates, err := d.histRates(pctx, m)
	if err != nil {
		return err
	}
	alerts, alertsOn := d.alerts(pctx)
	if !d.plain {
		d.retarget(ctx, sweeps)
	}

	var b strings.Builder
	b.WriteString("\x1b[H\x1b[2J") // home + clear
	fmt.Fprintf(&b, "\x1b[1mrfidtop\x1b[0m  %s  %s  (ctrl-c to quit)\n\n",
		d.addr, time.Now().Format("15:04:05"))

	d.poolSection(&b, m, rates)
	d.latencySection(&b, m)
	d.cacheSection(&b, m)
	if alertsOn {
		alertSection(&b, alerts)
	}
	d.sweepSection(&b, sweeps)
	if !d.plain {
		d.eventSection(&b)
	}

	out := b.String()
	if d.plain {
		out = stripANSI(out)
	}
	_, err = io.WriteString(d.out, out)
	return err
}

// histRates are the "recent" rate columns, read from the daemon's
// metrics history, which is correct on the very first frame and across
// reconnects.
type histRates struct {
	jobsPerSec float64
	busyFrac   float64
}

// histWindow is how far back the "recent" columns look when served
// from history.
const histWindow = 30 * time.Second

func (d *dash) histRates(ctx context.Context, m map[string]float64) (histRates, error) {
	resp, err := d.client.MetricsHistory(ctx, []string{
		"rfidd_jobs_done_total",
		"rfidd_worker_busy_seconds_total",
	}, histWindow, "rate")
	if err != nil {
		return histRates{}, err
	}
	if len(resp.Results) != 2 {
		return histRates{}, fmt.Errorf("metrics history: %d results, want 2", len(resp.Results))
	}
	r := histRates{jobsPerSec: meanPoints(resp.Results[0].Points)}
	if workers := m["rfidd_workers"]; workers > 0 {
		// Rate of busy-seconds per wall second, split across the pool.
		r.busyFrac = meanPoints(resp.Results[1].Points) / workers
	}
	return r, nil
}

// meanPoints averages the finite points of one history result.
func meanPoints(pts []tsdb.Point) float64 {
	var sum float64
	var n int
	for _, p := range pts {
		if p.V == p.V { // skip NaN gaps
			sum += p.V
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// alerts fetches the SLO alert table; on=false when the daemon rejected
// its SLO policy (404) or the poll fails.
func (d *dash) alerts(ctx context.Context) (server.AlertsResponse, bool) {
	resp, err := d.client.Alerts(ctx)
	if err != nil {
		return server.AlertsResponse{}, false
	}
	return resp, true
}

// retarget points the SSE tail at the pinned sweep, or the newest
// running sweep, or the newest overall; restarts the tailer when the
// target changes.
func (d *dash) retarget(ctx context.Context, sweeps []server.SweepResponse) {
	target := d.pinned
	if target == "" {
		for _, sw := range sweeps { // newest last in the listing
			if sw.Status == "queued" || sw.Status == "running" || target == "" {
				target = sw.ID
			}
		}
	}
	if target == "" || target == d.tailTarget {
		return
	}
	if d.tailStop != nil {
		d.tailStop()
	}
	tctx, stop := context.WithCancel(ctx)
	d.tailTarget, d.tailStop = target, stop
	d.tail.reset(target)
	go func() {
		err := d.client.Sweeps().Watch(tctx, target, func(ev server.WatchEvent) error {
			d.tail.add(formatEvent(ev))
			return nil
		})
		if err != nil && tctx.Err() == nil {
			d.tail.add("tail error: " + err.Error())
		}
	}()
}

func (d *dash) poolSection(b *strings.Builder, m map[string]float64, h histRates) {
	fmt.Fprintf(b, "\x1b[1mpool\x1b[0m     workers %.0f  busy %.0f  busy%%(recent) %s  queue %.0f (hiwater %.0f)\n",
		m["rfidd_workers"], m["rfidd_workers_busy"], pct(h.busyFrac),
		m["rfidd_queue_depth"], m["rfidd_queue_depth_high_water"])
	fmt.Fprintf(b, "         jobs done %.0f  failed %.0f  canceled %.0f  done/s %s\n\n",
		m["rfidd_jobs_done_total"], m["rfidd_jobs_failed_total"],
		m["rfidd_jobs_canceled_total"], rateStr(h.jobsPerSec))
}

// alertSection renders the SLO alert pane: a one-line summary plus a
// row per objective that is anywhere but inactive.
func alertSection(b *strings.Builder, resp server.AlertsResponse) {
	head := "\x1b[1malerts\x1b[0m  "
	if resp.Firing > 0 {
		head = "\x1b[1;31malerts\x1b[0m  "
	}
	fmt.Fprintf(b, "%s %d firing / %d objectives\n", head, resp.Firing, len(resp.Alerts))
	shown := 0
	for _, a := range resp.Alerts {
		if a.State == slo.StateInactive || shown >= 6 {
			continue
		}
		shown++
		fmt.Fprintf(b, "         %-24s %-9s target %.3f  burn fast %.2f  slow %.2f\n",
			a.Objective, a.State, a.Target, a.Burn["fast"], a.Burn["slow"])
	}
	b.WriteByte('\n')
}

func (d *dash) latencySection(b *strings.Builder, m map[string]float64) {
	fmt.Fprintf(b, "\x1b[1mlatency\x1b[0m  %-7s %14s %14s %14s\n", "origin", "queue-wait", "run", "cache-lookup")
	for _, origin := range []string{"job", "sweep"} {
		l := `{origin="` + origin + `"}`
		fmt.Fprintf(b, "         %-7s %14s %14s %14s\n", origin,
			avgStr(m, "rfidd_queue_wait_seconds", l),
			avgStr(m, "rfidd_run_seconds", l),
			avgStr(m, "rfidd_cache_lookup_seconds", l))
	}
	fmt.Fprintf(b, "         window-wait %s (n=%.0f)\n\n",
		avgStr(m, "rfidd_sweep_window_wait_seconds", ""),
		m["rfidd_sweep_window_wait_seconds_count"])
}

func (d *dash) cacheSection(b *strings.Builder, m map[string]float64) {
	fmt.Fprintf(b, "\x1b[1mcache\x1b[0m    entries %.0f/%.0f  hit-ratio %s\n",
		m["rfidd_cache_entries"], m["rfidd_cache_capacity"], pct(m["rfidd_cache_hit_ratio"]))
	for _, origin := range []string{"job", "sweep"} {
		l := `{origin="` + origin + `"}`
		hits := m["rfidd_cache_origin_hits_total"+l]
		misses := m["rfidd_cache_origin_misses_total"+l]
		ratio := 0.0
		if hits+misses > 0 {
			ratio = hits / (hits + misses)
		}
		fmt.Fprintf(b, "         %-7s hits %.0f  misses %.0f  ratio %s\n", origin, hits, misses, pct(ratio))
	}
	b.WriteByte('\n')
}

func (d *dash) sweepSection(b *strings.Builder, sweeps []server.SweepResponse) {
	fmt.Fprintf(b, "\x1b[1msweeps\x1b[0m   %d indexed\n", len(sweeps))
	// Newest five, newest first.
	for i, shown := len(sweeps)-1, 0; i >= 0 && shown < 5; i, shown = i-1, shown+1 {
		sw := sweeps[i]
		c := sw.Counts
		fmt.Fprintf(b, "         %-8s %-9s cells %d done %d cached %d coalesced %d failed %d\n",
			sw.ID, sw.Status, c.Cells, c.Done, c.Cached, c.Coalesced, c.Failed)
	}
	b.WriteByte('\n')
}

func (d *dash) eventSection(b *strings.Builder) {
	target, lines := d.tail.snapshot()
	if target == "" {
		fmt.Fprintf(b, "\x1b[1mevents\x1b[0m   (no sweep to tail yet)\n")
		return
	}
	fmt.Fprintf(b, "\x1b[1mevents\x1b[0m   tailing %s\n", target)
	for _, l := range lines {
		fmt.Fprintf(b, "         %s\n", l)
	}
}

// avgStr renders a histogram's overall mean as "1.2ms (n=34)".
func avgStr(m map[string]float64, family, labels string) string {
	count := m[family+"_count"+labels]
	if count == 0 {
		return "-"
	}
	mean := m[family+"_sum"+labels] / count
	return fmtSeconds(mean)
}

func fmtSeconds(s float64) string {
	return time.Duration(s * float64(time.Second)).Round(time.Microsecond).String()
}

func pct(f float64) string {
	return strconv.FormatFloat(f*100, 'f', 1, 64) + "%"
}

func rateStr(f float64) string {
	return strconv.FormatFloat(f, 'f', 1, 64)
}

// formatEvent compacts one SSE event into a single tail line.
func formatEvent(ev server.WatchEvent) string {
	keys := make([]string, 0, len(ev.Data))
	for k := range ev.Data {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	fmt.Fprintf(&b, "#%-5d %-6s", ev.ID, ev.Type)
	for _, k := range keys {
		fmt.Fprintf(&b, " %s=%v", k, ev.Data[k])
	}
	if b.Len() > 110 {
		return b.String()[:107] + "..."
	}
	return b.String()
}

// tail is the bounded, mutex-guarded event-line ring the SSE tailer
// writes and the render loop reads.
type tail struct {
	mu     sync.Mutex
	target string
	lines  []string
	max    int
}

func newTail(max int) *tail {
	if max < 1 {
		max = 1
	}
	return &tail{max: max}
}

func (t *tail) reset(target string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.target = target
	t.lines = nil
}

func (t *tail) add(line string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.lines = append(t.lines, line)
	if len(t.lines) > t.max {
		t.lines = t.lines[len(t.lines)-t.max:]
	}
}

func (t *tail) snapshot() (string, []string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.target, append([]string(nil), t.lines...)
}

// stripANSI drops CSI escape sequences, turning a rendered frame into
// the -once plain-text form safe for pipes and logs.
func stripANSI(s string) string {
	var b strings.Builder
	b.Grow(len(s))
	for i := 0; i < len(s); i++ {
		if s[i] == 0x1b && i+1 < len(s) && s[i+1] == '[' {
			j := i + 2
			for j < len(s) && (s[j] < 0x40 || s[j] > 0x7e) {
				j++
			}
			i = j
			continue
		}
		b.WriteByte(s[i])
	}
	return b.String()
}

// parseProm flattens a Prometheus text exposition into series → value,
// keyed by the series name with its label set verbatim.
func parseProm(text string) map[string]float64 {
	out := make(map[string]float64, 128)
	for _, line := range strings.Split(text, "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp <= 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			continue
		}
		out[line[:sp]] = v
	}
	return out
}
