package augment

import (
	"os"
	"testing"
	"time"

	"quepa/internal/telemetry"
)

// TestTraceOverheadGuard is the CI regression gate on distributed-tracing
// cost (`make bench-trace`): it runs the BenchmarkTraceOverhead pair and
// fails when the traced search is more than 30% AND more than a 2ms noise
// floor slower than the untraced one — the same tolerance shape as the
// figure-9 baseline compare. Gated behind QUEPA_TRACE_GUARD because
// wall-clock comparisons have no place in the deterministic tier-1 suite.
func TestTraceOverheadGuard(t *testing.T) {
	if os.Getenv("QUEPA_TRACE_GUARD") == "" {
		t.Skip("set QUEPA_TRACE_GUARD=1 (make bench-trace) to run the overhead gate")
	}
	poly, ix, db, query := syntheticPolystore(t, 6, 200, 13)
	prev := telemetry.SetEnabled(true)
	defer telemetry.SetEnabled(prev)
	tracer := telemetry.DefaultTracer()
	prevSlow := tracer.SlowThreshold()
	prevRate := tracer.SampleRate()
	tracer.SetSlowThreshold(time.Hour)
	tracer.SetSampleRate(telemetry.DefaultSampleRate)
	defer func() {
		tracer.SetSlowThreshold(prevSlow)
		tracer.SetSampleRate(prevRate)
		tracer.Reset()
	}()

	run := func(traced bool) time.Duration {
		aug := New(poly, ix, Config{Strategy: OuterBatch, BatchSize: 64, ThreadsSize: 4})
		res := testing.Benchmark(func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				c := ctx
				var sp *telemetry.Span
				if traced {
					c, sp = telemetry.StartSpan(ctx, "guard request")
				}
				if _, err := aug.Search(c, db, query, 1); err != nil {
					b.Fatal(err)
				}
				sp.End()
			}
		})
		return time.Duration(res.NsPerOp())
	}

	// Interleave and keep the best of each, shedding scheduler noise.
	best := func(a, b time.Duration) time.Duration {
		if a < b {
			return a
		}
		return b
	}
	untraced, traced := run(false), run(true)
	untraced, traced = best(untraced, run(false)), best(traced, run(true))

	delta := traced - untraced
	t.Logf("untraced %v, traced %v, delta %v", untraced, traced, delta)
	if delta > 2*time.Millisecond && float64(traced) > float64(untraced)*1.30 {
		t.Errorf("tracing overhead %v (%.0f%%) exceeds the +30%%/2ms budget",
			delta, 100*float64(delta)/float64(untraced))
	}
}
