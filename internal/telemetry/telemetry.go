// Package telemetry is the observability layer of the reproduction: an
// atomic-based metrics registry (counters, gauges and fixed-bucket latency
// histograms with p50/p95/p99 snapshots) plus a lightweight, context-propagated
// span tracer with a ring-buffered slow-query log.
//
// The package is stdlib-only and designed for hot-path use: recording a
// counter or a histogram observation is a handful of atomic operations and
// never allocates; metric handles are meant to be resolved once (package
// var or struct field) and hammered forever. The exposition side speaks the
// Prometheus text format (WritePrometheus), so a stock Prometheus scraper
// can consume a quepa-server without any third-party client library.
//
// Everything funnels through a process-wide default registry and tracer
// (Default, the New* helpers, StartSpan) because the instrumented packages —
// stores, cache, index, augmenters, wire — have no common construction point
// to thread a registry through. A global kill switch (SetEnabled) turns every
// instrument into a no-op so benchmarks can measure the uninstrumented
// baseline in the same binary.
package telemetry

import "sync/atomic"

// enabled is the global kill switch. It defaults to on; SetEnabled(false)
// turns every counter increment, histogram observation and span start into a
// cheap early return.
var enabled atomic.Bool

func init() { enabled.Store(true) }

// SetEnabled flips the global instrumentation switch and reports the previous
// state. Benchmarks use it to measure the uninstrumented hot path.
func SetEnabled(on bool) bool { return enabled.Swap(on) }

// std is the process-wide registry every instrumented package records into.
var std = NewRegistry()

// Default returns the process-wide registry.
func Default() *Registry { return std }

// NewCounter returns the named counter from the default registry, creating it
// on first use (the expvar.NewInt idiom).
func NewCounter(name, help string, labels ...Label) *Counter {
	return std.Counter(name, help, labels...)
}

// NewHistogram returns the named histogram from the default registry. A nil
// bucket slice selects LatencyBuckets.
func NewHistogram(name, help string, buckets []float64, labels ...Label) *Histogram {
	return std.Histogram(name, help, buckets, labels...)
}
