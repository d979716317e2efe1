package telemetry

import (
	"context"
	"testing"
	"time"
)

// TestKillSwitchRecordsNothing verifies that with telemetry disabled every
// instrument is inert: nothing is counted, timed, or traced.
func TestKillSwitchRecordsNothing(t *testing.T) {
	prev := SetEnabled(false)
	defer SetEnabled(prev)

	r := NewRegistry()
	c := r.Counter("off_counter", "")
	g := r.Gauge("off_gauge", "")
	h := r.Histogram("off_hist", "", nil)
	c.Inc()
	c.Add(5)
	g.Set(3)
	h.Observe(500 * time.Microsecond)
	if v := c.Value(); v != 0 {
		t.Errorf("counter = %d", v)
	}
	if got := g.Value(); got != 0 {
		t.Errorf("gauge = %v", got)
	}
	if n := h.Count(); n != 0 {
		t.Errorf("histogram count = %d", n)
	}

	if !Now().IsZero() {
		t.Error("Now() read the clock while disabled")
	}

	tr := NewTracer(8)
	ctx, span := tr.StartSpan(context.Background(), "root")
	_, child := tr.StartSpan(ctx, "child")
	child.End()
	span.End()
	if got := tr.Snapshot(); len(got) != 0 {
		t.Errorf("tracer kept %d spans", len(got))
	}

	// Trace identity is inert too: no IDs minted, no traceparent rendered,
	// and a remote continuation carrying a valid traceparent records nothing.
	if tp := span.TraceParent(); tp != "" {
		t.Errorf("disabled span rendered traceparent %q", tp)
	}
	if span != nil {
		t.Errorf("disabled tracer opened a span with trace ID %v", span.traceID)
	}
	_, remote := tr.StartRemoteSpan(context.Background(),
		"remote", "00-0123456789abcdeffedcba9876543210-deadbeefcafef00d-01")
	remote.Mark(FlagError)
	remote.AddBytes(128, 256)
	remote.End()
	if got := tr.Snapshot(); len(got) != 0 {
		t.Errorf("remote continuation kept %d spans while disabled", len(got))
	}
	if st := tr.SamplingStats(); st.Seen != 0 {
		t.Errorf("sampler saw %d roots while disabled", st.Seen)
	}
}

// TestKillSwitchZeroAllocs pins the cost contract: every disabled hot-path
// hook runs without a single allocation.
func TestKillSwitchZeroAllocs(t *testing.T) {
	prev := SetEnabled(false)
	defer SetEnabled(prev)

	r := NewRegistry()
	c := r.Counter("alloc_counter", "")
	g := r.Gauge("alloc_gauge", "")
	h := r.Histogram("alloc_hist", "", nil)
	tr := NewTracer(8)
	ctx := context.Background()

	cases := []struct {
		name string
		fn   func()
	}{
		{"Counter.Inc", func() { c.Inc() }},
		{"Gauge.Set", func() { g.Set(1) }},
		{"Histogram.Observe", func() { h.Observe(100 * time.Microsecond) }},
		{"Now", func() { _ = Now() }},
		{"StartSpan", func() {
			_, span := tr.StartSpan(ctx, "off")
			span.SetAttr("k", "v")
			span.End()
		}},
		{"StartRemoteSpan", func() {
			_, span := tr.StartRemoteSpan(ctx, "off",
				"00-0123456789abcdeffedcba9876543210-deadbeefcafef00d-01")
			span.End()
		}},
		{"Span.TraceParent", func() {
			_, span := tr.StartSpan(ctx, "off")
			_ = span.TraceParent()
			span.End()
		}},
		{"Span.Mark+AddBytes", func() {
			_, span := tr.StartSpan(ctx, "off")
			span.Mark(FlagRetry | FlagBreaker)
			span.AddBytes(128, 256)
			span.End()
		}},
	}
	for _, tc := range cases {
		if n := testing.AllocsPerRun(100, tc.fn); n != 0 {
			t.Errorf("%s allocates %v per run while disabled", tc.name, n)
		}
	}
}
