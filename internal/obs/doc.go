// Package obs is the repo's stdlib-only observability layer: a named
// metrics registry with a Prometheus text encoder, and a bounded span
// store exportable as JSONL or Chrome trace-event JSON.
//
// # Metrics
//
// A Registry owns metric families (counter, gauge, histogram) keyed by
// name and an optional fixed label set. Registration is idempotent:
// asking for an existing name+labels pair returns the existing
// collector, so instrumentation can be wired from several places
// without coordination. Func-backed variants (CounterFunc, GaugeFunc)
// sample a callback at exposition time, which lets subsystems that
// already keep their own counters (the jobs pool, the result cache)
// join the registry without double bookkeeping. WritePrometheus walks
// every family in registration order and emits the text exposition
// format, so an HTTP /metrics endpoint is a single registry walk.
//
// # Tracing
//
// A TraceStore records spans grouped by trace ID, each with a parent
// link, on one monotonic clock. It keeps at most a fixed number of
// traces (oldest evicted) of a fixed number of spans each (further
// spans dropped and counted). Span contexts travel through context
// (WithSpan / SpanFrom), so deep call stacks like sim.RunContext
// record experiment, round and frame spans under the caller's span
// without new parameters. A zero SpanContext and a nil store are inert
// and allocation-free. Traces export as JSONL (WriteJSONL) or as Chrome
// trace-event JSON (WriteChromeTrace) loadable in chrome://tracing or
// https://ui.perfetto.dev.
package obs
