package telemetry

import (
	"context"
	"sync"
	"testing"
	"time"
)

func TestSpanTreeAssembly(t *testing.T) {
	tr := NewTracer(8)
	tr.SetSlowThreshold(0) // keep everything

	ctx, root := tr.StartSpan(context.Background(), "search")
	root.SetAttr("db", "transactions")
	ctx2, child := tr.StartSpan(ctx, "augment")
	child.SetAttr("strategy", "BATCH")
	_, grand := tr.StartSpan(ctx2, "fetch")
	grand.End()
	child.End()
	root.End()

	traces := tr.Snapshot()
	if len(traces) != 1 {
		t.Fatalf("traces = %d, want 1", len(traces))
	}
	got := traces[0]
	if got.Name != "search" || got.Attrs["db"] != "transactions" {
		t.Errorf("root = %+v", got)
	}
	if len(got.Children) != 1 || got.Children[0].Name != "augment" {
		t.Fatalf("children = %+v", got.Children)
	}
	if got.Children[0].Attrs["strategy"] != "BATCH" {
		t.Errorf("child attrs = %v", got.Children[0].Attrs)
	}
	if len(got.Children[0].Children) != 1 || got.Children[0].Children[0].Name != "fetch" {
		t.Errorf("grandchildren = %+v", got.Children[0].Children)
	}
	if got.DurationMS < 0 {
		t.Errorf("duration = %v", got.DurationMS)
	}
}

func TestSlowThresholdFilters(t *testing.T) {
	tr := NewTracer(8)
	tr.SetSlowThreshold(10 * time.Millisecond)

	_, fast := tr.StartSpan(context.Background(), "fast")
	fast.End()
	if len(tr.Snapshot()) != 0 {
		t.Error("fast span retained")
	}

	_, slow := tr.StartSpan(context.Background(), "slow")
	time.Sleep(15 * time.Millisecond)
	slow.End()
	traces := tr.Snapshot()
	if len(traces) != 1 || traces[0].Name != "slow" {
		t.Errorf("traces = %+v", traces)
	}
	if st := tr.SamplingStats(); st.Seen != 2 || st.Kept != 1 {
		t.Errorf("seen/kept = (%d, %d), want (2, 1)", st.Seen, st.Kept)
	}
}

func TestRingBufferEviction(t *testing.T) {
	tr := NewTracer(3)
	tr.SetSlowThreshold(0)
	for i := 0; i < 5; i++ {
		_, s := tr.StartSpan(context.Background(), string(rune('a'+i)))
		s.End()
	}
	traces := tr.Snapshot()
	if len(traces) != 3 {
		t.Fatalf("ring holds %d, want 3", len(traces))
	}
	// Newest first: e, d, c survive; a and b were evicted.
	want := []string{"e", "d", "c"}
	for i, w := range want {
		if traces[i].Name != w {
			t.Errorf("traces[%d] = %q, want %q", i, traces[i].Name, w)
		}
	}
}

func TestOnlyRootsAreLogged(t *testing.T) {
	tr := NewTracer(8)
	tr.SetSlowThreshold(0)
	ctx, root := tr.StartSpan(context.Background(), "root")
	_, child := tr.StartSpan(ctx, "child")
	child.End()
	root.End()
	if got := len(tr.Snapshot()); got != 1 {
		t.Errorf("traces = %d, want 1 (children must not be logged separately)", got)
	}
}

func TestNilSpanSafe(t *testing.T) {
	var s *Span
	s.SetAttr("k", "v")
	s.End()
	if s.Duration() != 0 {
		t.Error("nil span duration")
	}
	if got := s.JSON(); got.Name != "" {
		t.Errorf("nil span JSON = %+v", got)
	}
}

func TestDisabledTracing(t *testing.T) {
	prev := SetEnabled(false)
	defer SetEnabled(prev)
	tr := NewTracer(8)
	tr.SetSlowThreshold(0)
	ctx, s := tr.StartSpan(context.Background(), "off")
	if s != nil {
		t.Error("disabled StartSpan returned a span")
	}
	if SpanFromContext(ctx) != nil {
		t.Error("disabled StartSpan stored a span in the context")
	}
	s.End()
	if len(tr.Snapshot()) != 0 {
		t.Error("disabled tracer retained a span")
	}
}

func TestConcurrentChildren(t *testing.T) {
	tr := NewTracer(8)
	tr.SetSlowThreshold(0)
	ctx, root := tr.StartSpan(context.Background(), "root")
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, c := tr.StartSpan(ctx, "worker")
			c.SetAttr("k", "v")
			c.End()
		}()
	}
	wg.Wait()
	root.End()
	traces := tr.Snapshot()
	if len(traces) != 1 || len(traces[0].Children) != 16 {
		t.Errorf("root children = %d, want 16", len(traces[0].Children))
	}
}

func TestSpanEndIdempotent(t *testing.T) {
	tr := NewTracer(8)
	tr.SetSlowThreshold(0)
	_, s := tr.StartSpan(context.Background(), "once")
	s.End()
	d := s.Duration()
	s.End()
	if s.Duration() != d {
		t.Error("second End changed the duration")
	}
	if seen := tr.SamplingStats().Seen; seen != 1 {
		t.Errorf("root logged %d times", seen)
	}
}

func TestTracerReset(t *testing.T) {
	tr := NewTracer(4)
	tr.SetSlowThreshold(0)
	_, s := tr.StartSpan(context.Background(), "x")
	s.End()
	tr.Reset()
	if len(tr.Snapshot()) != 0 {
		t.Error("reset did not empty the log")
	}
	if st := tr.SamplingStats(); st.Seen != 0 || st.Kept != 0 {
		t.Errorf("seen/kept after reset = (%d, %d)", st.Seen, st.Kept)
	}
}
