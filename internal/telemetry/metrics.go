package telemetry

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Label is one metric dimension, e.g. {Key: "strategy", Value: "BATCH"}.
// Series of the same name with different label sets are rendered as one
// Prometheus family under a shared HELP/TYPE header.
type Label struct {
	Key   string
	Value string
}

// L is shorthand for constructing a Label.
func L(key, value string) Label { return Label{Key: key, Value: value} }

// Counter is a monotonically increasing counter, safe for concurrent use.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one to the counter.
func (c *Counter) Inc() { c.Add(1) }

// Add adds n to the counter.
func (c *Counter) Add(n uint64) {
	if !enabled.Load() {
		return
	}
	c.v.Add(n)
}

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is a value that can go up and down, safe for concurrent use.
type Gauge struct {
	v atomic.Int64
}

// Set replaces the gauge's value.
func (g *Gauge) Set(v int64) {
	if !enabled.Load() {
		return
	}
	g.v.Store(v)
}

// Add moves the gauge by delta (negative deltas decrement).
func (g *Gauge) Add(delta int64) {
	if !enabled.Load() {
		return
	}
	g.v.Add(delta)
}

// Value returns the current gauge value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// LatencyBuckets is the default histogram bucket layout: upper bounds in
// seconds from 10µs to 10s, roughly three per decade. The embedded stores
// answer in microseconds while simulated WAN round trips take tens of
// milliseconds, so the range covers both ends of the deployment spectrum.
var LatencyBuckets = []float64{
	10e-6, 25e-6, 50e-6, 100e-6, 250e-6, 500e-6,
	1e-3, 2.5e-3, 5e-3, 10e-3, 25e-3, 50e-3, 100e-3, 250e-3, 500e-3,
	1, 2.5, 5, 10,
}

// Histogram is a fixed-bucket latency histogram. Observations are two atomic
// adds plus a short linear scan over the bucket bounds; no locks, no
// allocation. The final implicit bucket is +Inf.
type Histogram struct {
	bounds   []float64 // upper bounds in seconds, ascending
	counts   []atomic.Uint64
	inf      atomic.Uint64
	count    atomic.Uint64
	sumNanos atomic.Int64
}

func newHistogram(bounds []float64) *Histogram {
	if len(bounds) == 0 {
		bounds = LatencyBuckets
	}
	if !sort.Float64sAreSorted(bounds) {
		bounds = append([]float64(nil), bounds...)
		sort.Float64s(bounds)
	}
	return &Histogram{bounds: bounds, counts: make([]atomic.Uint64, len(bounds))}
}

// Observe records one duration. A nil histogram is a no-op, so callers that
// resolve handles dynamically need no guard.
func (h *Histogram) Observe(d time.Duration) {
	if h == nil || !enabled.Load() {
		return
	}
	if d < 0 {
		d = 0
	}
	h.count.Add(1)
	h.sumNanos.Add(int64(d))
	secs := d.Seconds()
	for i, b := range h.bounds {
		if secs <= b {
			h.counts[i].Add(1)
			return
		}
	}
	h.inf.Add(1)
}

// Since observes the time elapsed from start, obtained via Now. A zero start
// (instrumentation disabled when the operation began) records nothing, so the
// disabled path never touches the clock.
func (h *Histogram) Since(start time.Time) {
	if h == nil || start.IsZero() {
		return
	}
	h.Observe(time.Since(start))
}

// Now returns the current time, or the zero time when instrumentation is
// disabled. Pair it with Histogram.Since to time an operation:
//
//	start := telemetry.Now()
//	... work ...
//	hist.Since(start)
func Now() time.Time {
	if !enabled.Load() {
		return time.Time{}
	}
	return time.Now()
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the total observed duration.
func (h *Histogram) Sum() time.Duration { return time.Duration(h.sumNanos.Load()) }

// CountAtMost returns how many observations landed in buckets whose upper
// bound is <= d — the "good events" count for a latency SLO with objective d.
// The answer is quantized to the bucket grid: d is effectively rounded down
// to the nearest bucket bound (off-grid objectives undercount good events,
// which errs toward alerting), so pick objectives on the grid for exact
// accounting.
func (h *Histogram) CountAtMost(d time.Duration) uint64 {
	if h == nil {
		return 0
	}
	secs := d.Seconds()
	var cum uint64
	for i, b := range h.bounds {
		if b > secs {
			break
		}
		cum += h.counts[i].Load()
	}
	return cum
}

// metric kinds, in Prometheus TYPE vocabulary.
const (
	kindCounter   = "counter"
	kindGauge     = "gauge"
	kindHistogram = "histogram"
)

// series is one labeled instance of a family: exactly one of the value
// fields is set.
type series struct {
	labels []Label
	c      *Counter
	g      *Gauge
	h      *Histogram
	cf     func() uint64
	gf     func() float64
}

// family groups the series sharing a metric name.
type family struct {
	name   string
	help   string
	kind   string
	order  []string // series keys in registration order
	series map[string]*series
}

// Registry holds metric families and renders them in the Prometheus text
// exposition format. Lookups take a read lock; the returned handles are
// lock-free. The zero Registry is not usable; call NewRegistry.
type Registry struct {
	mu       sync.RWMutex
	families map[string]*family
	order    []string
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: map[string]*family{}}
}

func labelsKey(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	var sb strings.Builder
	for _, l := range labels {
		sb.WriteString(l.Key)
		sb.WriteByte('\xff')
		sb.WriteString(l.Value)
		sb.WriteByte('\xfe')
	}
	return sb.String()
}

// sortLabels returns a copy of labels in key order, the canonical series
// identity (so {a=1,b=2} and {b=2,a=1} are the same series).
func sortLabels(labels []Label) []Label {
	out := append([]Label(nil), labels...)
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out
}

// lookup finds or creates the series for (name, labels), enforcing that a
// name keeps one kind for its whole life. build is called under the write
// lock to construct a missing series.
func (r *Registry) lookup(name, help, kind string, labels []Label, build func() *series) *series {
	labels = sortLabels(labels)
	key := labelsKey(labels)

	r.mu.RLock()
	if f, ok := r.families[name]; ok && f.kind == kind {
		if s, ok := f.series[key]; ok {
			r.mu.RUnlock()
			return s
		}
	}
	r.mu.RUnlock()

	r.mu.Lock()
	defer r.mu.Unlock()
	f, ok := r.families[name]
	if !ok {
		f = &family{name: name, help: help, kind: kind, series: map[string]*series{}}
		r.families[name] = f
		r.order = append(r.order, name)
	}
	if f.kind != kind {
		panic(fmt.Sprintf("telemetry: metric %q registered as %s, requested as %s", name, f.kind, kind))
	}
	if f.help == "" {
		f.help = help
	}
	s, ok := f.series[key]
	if !ok {
		s = build()
		s.labels = labels
		f.series[key] = s
		f.order = append(f.order, key)
	}
	return s
}

// Counter returns the counter for (name, labels), creating it on first use.
// Registering the same series again returns the existing counter; registering
// the name with a different kind panics (a programming error).
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	s := r.lookup(name, help, kindCounter, labels, func() *series { return &series{c: &Counter{}} })
	if s.c == nil {
		panic(fmt.Sprintf("telemetry: metric %q is function-backed", name))
	}
	return s.c
}

// Gauge returns the gauge for (name, labels), creating it on first use.
func (r *Registry) Gauge(name, help string, labels ...Label) *Gauge {
	s := r.lookup(name, help, kindGauge, labels, func() *series { return &series{g: &Gauge{}} })
	if s.g == nil {
		panic(fmt.Sprintf("telemetry: metric %q is function-backed", name))
	}
	return s.g
}

// Histogram returns the histogram for (name, labels), creating it on first
// use with the given bucket upper bounds in seconds (nil selects
// LatencyBuckets). Buckets are fixed at creation; later calls ignore the
// argument and return the existing histogram.
func (r *Registry) Histogram(name, help string, buckets []float64, labels ...Label) *Histogram {
	s := r.lookup(name, help, kindHistogram, labels, func() *series { return &series{h: newHistogram(buckets)} })
	return s.h
}

// CounterFunc registers a function-backed counter: fn is called at exposition
// time. Re-registering the same series replaces the function, so components
// recreated across tests keep the export pointing at the live instance.
func (r *Registry) CounterFunc(name, help string, fn func() uint64, labels ...Label) {
	s := r.lookup(name, help, kindCounter, labels, func() *series { return &series{} })
	r.mu.Lock()
	s.c, s.cf = nil, fn
	r.mu.Unlock()
}

// GaugeFunc registers a function-backed gauge, with CounterFunc's semantics.
func (r *Registry) GaugeFunc(name, help string, fn func() float64, labels ...Label) {
	s := r.lookup(name, help, kindGauge, labels, func() *series { return &series{} })
	r.mu.Lock()
	s.g, s.gf = nil, fn
	r.mu.Unlock()
}

// escapeLabel escapes a label value per the Prometheus text format.
func escapeLabel(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, "\n", `\n`)
	v = strings.ReplaceAll(v, `"`, `\"`)
	return v
}

// renderLabels renders {k="v",...}; extra appends one more pair (used for
// the histogram "le" label). Returns "" for an empty set.
func renderLabels(labels []Label, extra ...Label) string {
	all := append(append([]Label(nil), labels...), extra...)
	if len(all) == 0 {
		return ""
	}
	var sb strings.Builder
	sb.WriteByte('{')
	for i, l := range all {
		if i > 0 {
			sb.WriteByte(',')
		}
		sb.WriteString(l.Key)
		sb.WriteString(`="`)
		sb.WriteString(escapeLabel(l.Value))
		sb.WriteByte('"')
	}
	sb.WriteByte('}')
	return sb.String()
}

// formatFloat renders a sample value the way Prometheus expects.
func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// WritePrometheus renders every family in the text exposition format
// (version 0.0.4), families in registration order, series in registration
// order within a family.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.RLock()
	defer r.mu.RUnlock()
	for _, name := range r.order {
		f := r.families[name]
		if _, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", f.name, f.help, f.name, f.kind); err != nil {
			return err
		}
		for _, key := range f.order {
			s := f.series[key]
			if err := writeSeries(w, f, s); err != nil {
				return err
			}
		}
	}
	return nil
}

func writeSeries(w io.Writer, f *family, s *series) error {
	switch {
	case s.c != nil || s.cf != nil:
		v := uint64(0)
		if s.c != nil {
			v = s.c.Value()
		} else {
			v = s.cf()
		}
		_, err := fmt.Fprintf(w, "%s%s %d\n", f.name, renderLabels(s.labels), v)
		return err
	case s.g != nil || s.gf != nil:
		v := 0.0
		if s.g != nil {
			v = float64(s.g.Value())
		} else {
			v = s.gf()
		}
		_, err := fmt.Fprintf(w, "%s%s %s\n", f.name, renderLabels(s.labels), formatFloat(v))
		return err
	case s.h != nil:
		h := s.h
		cum := uint64(0)
		for i, b := range h.bounds {
			cum += h.counts[i].Load()
			le := formatFloat(b)
			if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n", f.name, renderLabels(s.labels, L("le", le)), cum); err != nil {
				return err
			}
		}
		total := cum + h.inf.Load()
		if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n", f.name, renderLabels(s.labels, L("le", "+Inf")), total); err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "%s_sum%s %s\n", f.name, renderLabels(s.labels), formatFloat(h.Sum().Seconds())); err != nil {
			return err
		}
		// _count is rendered from the bucket sums rather than the count
		// atomic, so the exposition is internally consistent even when
		// observations land between the reads.
		_, err := fmt.Fprintf(w, "%s_count%s %d\n", f.name, renderLabels(s.labels), total)
		return err
	}
	return nil
}
