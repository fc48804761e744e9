package server

// GET /debug/statusz: a self-contained HTML snapshot of the service —
// pool load and saturation, cache effectiveness by origin, recent
// sweeps, retained traces, and the tail of the wide-event stream — for
// a human with a browser and no Prometheus. Everything here is served
// from in-memory state; rendering takes no locks longer than the
// snapshot copies require.

import (
	"fmt"
	"html/template"
	"math"
	"net/http"
	"strings"
	"time"

	"repro/internal/obs"
	"repro/internal/obs/slo"
	"repro/internal/obs/tsdb"
	"repro/internal/rescache"
)

var statuszTmpl = template.Must(template.New("statusz").Funcs(template.FuncMap{
	"dur": func(d time.Duration) string { return d.Round(time.Microsecond).String() },
	"pct": func(f float64) string { return fmt.Sprintf("%.0f%%", 100*f) },
	"ts":  func(t time.Time) string { return t.Format("15:04:05.000") },
}).Parse(`<!DOCTYPE html>
<html><head><meta charset="utf-8"><title>rfidd statusz</title>
<style>
body { font-family: monospace; margin: 1.5em; background: #fafafa; color: #222; }
h1 { font-size: 1.3em; } h2 { font-size: 1.05em; margin-top: 1.4em; }
table { border-collapse: collapse; margin: 0.5em 0; }
th, td { border: 1px solid #bbb; padding: 2px 8px; text-align: left; }
th { background: #eee; }
.num { text-align: right; }
.muted { color: #888; }
.firing { background: #c62828; color: #fff; padding: 0.5em 0.8em; margin: 0.8em 0; }
.firing a { color: #fff; }
.spark { font-family: monospace; letter-spacing: 1px; }
.state-firing { color: #c62828; font-weight: bold; }
.state-pending { color: #ef6c00; }
.state-resolved { color: #2e7d32; }
</style></head><body>
<h1>rfidd statusz</h1>
<p>snapshot {{ts .Now}} &middot; up {{.Uptime}}</p>
{{if .Firing}}<div class="firing">&#9888; {{len .Firing}} SLO alert{{if gt (len .Firing) 1}}s{{end}} firing:
{{range .Firing}} <b>{{.Objective}}</b> (burn fast {{printf "%.1f" (index .Burn "fast")}}, slow {{printf "%.1f" (index .Burn "slow")}}){{end}}
&middot; <a href="/v1/alerts">/v1/alerts</a></div>{{end}}

<h2>worker pool</h2>
<table>
<tr><th>workers</th><th>busy</th><th>utilisation</th><th>queue</th><th>queue high-water</th><th>busy-seconds</th></tr>
<tr><td class="num">{{.Pool.Workers}}</td><td class="num">{{.Pool.Busy}}</td>
<td class="num">{{pct .Pool.Utilisation}}</td><td class="num">{{.Pool.QueueDepth}}</td>
<td class="num">{{.Pool.QueueHighWater}}</td><td class="num">{{printf "%.3f" .Pool.BusySeconds}}</td></tr>
</table>
<table>
<tr><th>submitted</th><th>done</th><th>failed</th><th>canceled</th></tr>
<tr><td class="num">{{.Pool.Submitted}}</td><td class="num">{{.Pool.Done}}</td>
<td class="num">{{.Pool.Failed}}</td><td class="num">{{.Pool.Canceled}}</td></tr>
</table>

<h2>result cache</h2>
<table>
<tr><th>origin</th><th>hits</th><th>misses</th><th>hit ratio</th></tr>
<tr><td>job</td><td class="num">{{.JobCache.Hits}}</td><td class="num">{{.JobCache.Misses}}</td><td class="num">{{pct .JobCache.HitRatio}}</td></tr>
<tr><td>sweep</td><td class="num">{{.SweepCache.Hits}}</td><td class="num">{{.SweepCache.Misses}}</td><td class="num">{{pct .SweepCache.HitRatio}}</td></tr>
</table>
<p>{{.Cache.Entries}}/{{.Cache.Capacity}} entries &middot; {{.Experiments}} experiment records indexed</p>

<h2>sweeps</h2>
{{if .Sweeps}}<table>
<tr><th>id</th><th>status</th><th>cells</th><th>done</th><th>cached</th><th>coalesced</th><th>failed</th><th>canceled</th></tr>
{{range .Sweeps}}<tr><td>{{.ID}}</td><td>{{.Status}}</td>
<td class="num">{{.Counts.Cells}}</td><td class="num">{{.Counts.Done}}</td>
<td class="num">{{.Counts.Cached}}</td><td class="num">{{.Counts.Coalesced}}</td>
<td class="num">{{.Counts.Failed}}</td><td class="num">{{.Counts.Canceled}}</td></tr>
{{end}}</table>{{else}}<p class="muted">none</p>{{end}}

<h2>traces</h2>
{{if not .Tracing}}<p class="muted">service tracing disabled</p>
{{else if .Traces}}<table>
<tr><th>trace</th><th>spans</th><th>dropped</th><th>started</th></tr>
{{range .Traces}}<tr><td><a href="/v1/traces/{{.ID}}">{{.ID}}</a></td>
<td class="num">{{.Spans}}</td><td class="num">{{.Dropped}}</td><td>{{ts .StartedAt}}</td></tr>
{{end}}</table>{{else}}<p class="muted">none recorded yet</p>{{end}}

<h2>trends <span class="muted">(history, last {{.TrendWindow}})</span></h2>
{{if .Trends}}<table>
<tr><th>series</th><th>trend</th><th>last</th></tr>
{{range .Trends}}<tr><td>{{.Name}}</td><td class="spark">{{.Spark}}</td><td class="num">{{.Last}}</td></tr>
{{end}}</table>{{else}}<p class="muted">no samples yet</p>{{end}}

<h2>slo alerts</h2>
{{if not .SLO}}<p class="muted">slo alerting disabled (policy rejected)</p>
{{else}}<table>
<tr><th>objective</th><th>state</th><th>target</th><th>burn fast</th><th>burn slow</th><th>since</th></tr>
{{range .Alerts}}<tr><td>{{.Objective}}</td><td class="state-{{.State}}">{{.State}}</td>
<td class="num">{{pct .Target}}</td>
<td class="num">{{printf "%.2f" (index .Burn "fast")}}</td>
<td class="num">{{printf "%.2f" (index .Burn "slow")}}</td>
<td>{{if .Since.IsZero}}&mdash;{{else}}{{ts .Since}}{{end}}</td></tr>
{{end}}</table>{{end}}

<h2>timeline annotations</h2>
{{if .Annotations}}<table>
<tr><th>time</th><th>kind</th><th>event</th></tr>
{{range .Annotations}}<tr><td>{{ts .T}}</td><td>{{.Kind}}</td><td>{{.Text}}</td></tr>
{{end}}</table>{{else}}<p class="muted">none yet</p>{{end}}

<h2>recent wide events <span class="muted">({{.WideTotal}} total)</span></h2>
{{if .Wide}}<table>
<tr><th>time</th><th>origin</th><th>id</th><th>status</th><th>alg</th><th>det</th><th>tags</th><th>frame</th><th>cache</th><th>queue wait</th><th>run</th><th>err</th></tr>
{{range .Wide}}<tr><td>{{ts .Time}}</td><td>{{.Origin}}</td><td>{{.ID}}</td>
<td>{{.Status}}</td><td>{{.Config.Algorithm}}</td><td>{{.Config.Detector}}</td>
<td class="num">{{.Config.Tags}}</td><td class="num">{{.Config.FrameSize}}</td><td>{{.Cache}}</td>
<td class="num">{{dur .QueueWait}}</td><td class="num">{{dur .RunTime}}</td><td>{{.Err}}</td></tr>
{{end}}</table>{{else}}<p class="muted">none yet</p>{{end}}
</body></html>
`))

// statuszData is the snapshot the template renders.
type statuszData struct {
	Now         time.Time
	Uptime      time.Duration
	Pool        poolView
	Cache       rescache.Stats
	JobCache    rescache.Stats
	SweepCache  rescache.Stats
	Experiments int64
	Sweeps      []SweepResponse
	Tracing     bool
	Traces      []obs.TraceSummary
	Wide        []wideEvent
	WideTotal   uint64

	SLO         bool
	TrendWindow time.Duration
	Trends      []trendRow
	Alerts      []slo.Alert
	Firing      []slo.Alert
	Annotations []tsdb.Annotation
}

// trendRow is one sparkline line in the trends table.
type trendRow struct {
	Name  string
	Spark string
	Last  string
}

// sparkRunes span eight amplitude levels, lowest to highest.
var sparkRunes = []rune("▁▂▃▄▅▆▇█")

// sparkline renders up to width trailing points as a min-max-scaled
// bar string; a flat series renders mid-height so it reads as "alive".
func sparkline(pts []tsdb.Point, width int) string {
	if len(pts) == 0 {
		return ""
	}
	if len(pts) > width {
		pts = pts[len(pts)-width:]
	}
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, p := range pts {
		lo = math.Min(lo, p.V)
		hi = math.Max(hi, p.V)
	}
	var b strings.Builder
	for _, p := range pts {
		level := 3 // flat series: mid-height
		if hi > lo {
			level = int((p.V - lo) / (hi - lo) * 7)
		}
		b.WriteRune(sparkRunes[level])
	}
	return b.String()
}

// statuszTrends derives the sparkline rows from the history store.
func (s *Server) statuszTrends(window time.Duration) []trendRow {
	rows := []struct{ name, sel, reduce, unit string }{
		{"queue depth", "rfidd_queue_depth", tsdb.ReduceRaw, ""},
		{"jobs done /s", "rfidd_jobs_done_total", tsdb.ReduceRate, "/s"},
		{"run latency job", `rfidd_run_seconds{origin="job"}`, tsdb.ReduceAvg, "s"},
		{"run latency sweep", `rfidd_run_seconds{origin="sweep"}`, tsdb.ReduceAvg, "s"},
		{"queue wait job", `rfidd_queue_wait_seconds{origin="job"}`, tsdb.ReduceAvg, "s"},
		{"cache hit ratio", "rfidd_cache_hit_ratio", tsdb.ReduceRaw, ""},
		{"worker utilisation", "rfidd_worker_utilisation", tsdb.ReduceRaw, ""},
		{"goroutines", "runtime_goroutines", tsdb.ReduceRaw, ""},
		{"heap in use", "runtime_heap_inuse_bytes", tsdb.ReduceRaw, "B"},
	}
	out := make([]trendRow, 0, len(rows))
	for _, row := range rows {
		res, err := s.hist.Query(row.sel, window, row.reduce)
		if err != nil || len(res.Points) == 0 {
			continue
		}
		last := res.Points[len(res.Points)-1].V
		out = append(out, trendRow{
			Name:  row.name,
			Spark: sparkline(res.Points, 48),
			Last:  fmt.Sprintf("%.3g%s", last, row.unit),
		})
	}
	return out
}

// poolView adds the derived utilisation to jobs.Stats for the template.
type poolView struct {
	Workers, Busy, QueueDepth, QueueHighWater int
	Submitted, Done, Failed, Canceled         uint64
	BusySeconds                               float64
	Utilisation                               float64
}

func (s *Server) handleStatusz(w http.ResponseWriter, r *http.Request) {
	ps := s.pool.Stats()
	d := statuszData{
		Now:    time.Now(),
		Uptime: time.Since(s.startedAt).Round(time.Second),
		Pool: poolView{
			Workers: ps.Workers, Busy: ps.Busy,
			QueueDepth: ps.QueueDepth, QueueHighWater: ps.QueueHighWater,
			Submitted: ps.Submitted, Done: ps.Done, Failed: ps.Failed,
			Canceled:    ps.Canceled,
			BusySeconds: ps.BusySeconds, Utilisation: ps.Utilisation(),
		},
		Cache:       s.cache.Stats(),
		JobCache:    s.cache.OriginStats(s.experiments.origin),
		SweepCache:  s.cache.OriginStats(s.sweeps.origin),
		Experiments: s.experiments.count.Load(),
		Tracing:     s.spans != nil,
		Wide:        s.wide.recent(32),
		WideTotal:   s.wide.count(),
	}
	s.mu.Lock()
	sweeps := s.sweeps.records()
	s.mu.Unlock()
	for i := len(sweeps) - 1; i >= 0 && len(d.Sweeps) < 16; i-- {
		d.Sweeps = append(d.Sweeps, sweepResponseOf(sweeps[i]))
	}
	if s.spans != nil {
		sums := s.spans.Summaries()
		if len(sums) > 16 { // newest are appended last; show the tail
			sums = sums[len(sums)-16:]
		}
		d.Traces = sums
	}
	d.TrendWindow = min(s.hist.Retention(), 5*time.Minute)
	d.Trends = s.statuszTrends(d.TrendWindow)
	anns := s.hist.Annotations(time.Time{})
	if len(anns) > 16 { // newest are appended last; show the tail
		anns = anns[len(anns)-16:]
	}
	d.Annotations = anns
	if s.slos != nil {
		d.SLO = true
		d.Alerts = s.slos.Alerts()
		d.Firing = s.slos.Firing()
	}
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	if err := statuszTmpl.Execute(w, d); err != nil && s.logger != nil {
		s.logger.Warn("statusz render failed", "err", err)
	}
}
