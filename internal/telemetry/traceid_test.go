package telemetry

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func TestSeededIDsDeterministic(t *testing.T) {
	prev := SetEnabled(true)
	defer SetEnabled(prev)

	SeedTraceIDs(42)
	a1, s1 := NewTraceID(), NewSpanID()
	SeedTraceIDs(42)
	a2, s2 := NewTraceID(), NewSpanID()
	if a1 != a2 || s1 != s2 {
		t.Fatalf("reseed did not replay: %v/%v vs %v/%v", a1, s1, a2, s2)
	}
	if a1.IsZero() || s1 == 0 {
		t.Fatalf("zero IDs drawn: %v %v", a1, s1)
	}
	SeedTraceIDs(43)
	if b := NewTraceID(); b == a1 {
		t.Fatalf("different seeds produced the same trace ID %v", b)
	}
}

func TestTraceParentRoundTrip(t *testing.T) {
	trace := TraceID{Hi: 0x0123456789abcdef, Lo: 0xfedcba9876543210}
	span := SpanID(0xdeadbeefcafef00d)
	tp := FormatTraceParent(trace, span)
	if tp != "00-0123456789abcdeffedcba9876543210-deadbeefcafef00d-01" {
		t.Fatalf("traceparent = %q", tp)
	}
	gotTrace, gotSpan, ok := ParseTraceParent(tp)
	if !ok || gotTrace != trace || gotSpan != span {
		t.Fatalf("round trip = %v %v %v", gotTrace, gotSpan, ok)
	}
	for _, bad := range []string{
		"", "00", "00-short-deadbeefcafef00d-01",
		"00-0123456789abcdeffedcba9876543210-deadbeefcafef00d-",
		"00-00000000000000000000000000000000-deadbeefcafef00d-01", // zero trace
		"00-0123456789abcdeffedcba9876543210-0000000000000000-01", // zero span
		"00-0123456789abcdeffedcba987654321X-deadbeefcafef00d-01", // bad hex
	} {
		if _, _, ok := ParseTraceParent(bad); ok {
			t.Errorf("ParseTraceParent(%q) accepted", bad)
		}
	}
}

func TestSpanIdentityPropagation(t *testing.T) {
	prev := SetEnabled(true)
	defer SetEnabled(prev)
	SeedTraceIDs(7)
	tr := NewTracer(8)
	tr.SetSlowThreshold(0)

	ctx, root := tr.StartSpan(context.Background(), "root")
	_, child := tr.StartSpan(ctx, "child")
	if child.traceID != root.traceID {
		t.Fatalf("child trace %v != root trace %v", child.traceID, root.traceID)
	}
	if child.id == root.id || child.id == 0 {
		t.Fatalf("span IDs not distinct: %v vs %v", child.id, root.id)
	}
	child.End()
	root.End()
	got := tr.Snapshot()[0]
	if got.TraceID != root.traceID.String() || got.SpanID != root.id.String() {
		t.Errorf("root JSON identity = %q/%q", got.TraceID, got.SpanID)
	}
	if got.Children[0].ParentSpanID != root.id.String() {
		t.Errorf("child parent_span_id = %q, want %q", got.Children[0].ParentSpanID, root.id)
	}
}

func TestRemoteSpanContinuesTrace(t *testing.T) {
	prev := SetEnabled(true)
	defer SetEnabled(prev)
	SeedTraceIDs(7)
	tr := NewTracer(8)
	tr.SetSlowThreshold(0)

	_, client := tr.StartSpan(context.Background(), "client")
	tp := client.TraceParent()
	_, server := tr.StartRemoteSpan(context.Background(), "server", tp)
	if server.traceID != client.traceID {
		t.Fatalf("server segment trace %v != client %v", server.traceID, client.traceID)
	}
	server.End()
	client.End()
	var seg SpanJSON
	for _, s := range tr.Snapshot() {
		if s.Name == "server" {
			seg = s
		}
	}
	if seg.ParentSpanID != client.id.String() {
		t.Errorf("server segment parent = %q, want client span %q", seg.ParentSpanID, client.id)
	}

	// Malformed traceparent degrades to a fresh root trace.
	_, orphan := tr.StartRemoteSpan(context.Background(), "orphan", "garbage")
	if orphan.traceID == client.traceID || orphan.traceID.IsZero() {
		t.Errorf("orphan trace = %v", orphan.traceID)
	}
	orphan.End()
}

func TestFlagsKeepFastTraces(t *testing.T) {
	prev := SetEnabled(true)
	defer SetEnabled(prev)
	tr := NewTracer(8)
	tr.SetSlowThreshold(time.Hour) // nothing is slow

	ctx, root := tr.StartSpan(context.Background(), "degraded-req")
	_, child := tr.StartSpan(ctx, "fetch")
	child.Mark(FlagBreaker) // marks propagate to the root
	child.End()
	root.End()

	traces := tr.Snapshot()
	if len(traces) != 1 {
		t.Fatalf("flagged fast trace not kept: %d", len(traces))
	}
	if len(traces[0].Flags) != 1 || traces[0].Flags[0] != "breaker" {
		t.Errorf("flags = %v", traces[0].Flags)
	}
	st := tr.SamplingStats()
	if st.KeptFlagged != 1 || st.KeptSlow != 0 {
		t.Errorf("stats = %+v", st)
	}

	_, plain := tr.StartSpan(context.Background(), "plain")
	plain.End()
	if st := tr.SamplingStats(); st.Seen != 2 || st.Kept != 1 {
		t.Errorf("seen/kept = %d/%d", st.Seen, st.Kept)
	}
}

func TestTailSamplingSweepsSiblingSegments(t *testing.T) {
	prev := SetEnabled(true)
	defer SetEnabled(prev)
	SeedTraceIDs(11)
	tr := NewTracer(8)
	tr.SetSlowThreshold(time.Hour)

	// A fast remote segment finishes first and is buffered, not kept.
	_, client := tr.StartSpan(context.Background(), "client")
	_, seg := tr.StartRemoteSpan(context.Background(), "server-seg", client.TraceParent())
	seg.End()
	if kept := tr.SamplingStats().Kept; kept != 0 {
		t.Fatalf("fast segment kept prematurely")
	}
	// The client root is flagged, so it is kept — and must pull the buffered
	// sibling segment of the same trace in with it.
	client.Mark(FlagError)
	client.End()
	if kept := tr.SamplingStats().Kept; kept != 2 {
		t.Fatalf("kept = %d, want 2 (root + swept segment)", kept)
	}
	// A late-finishing segment of an already-kept trace is kept as well.
	_, late := tr.StartRemoteSpan(context.Background(), "late-seg", client.TraceParent())
	late.End()
	if kept := tr.SamplingStats().Kept; kept != 3 {
		t.Fatalf("kept = %d, want 3 after late segment", kept)
	}
	if st := tr.SamplingStats(); st.KeptSwept != 2 {
		t.Errorf("swept = %d, want 2", st.KeptSwept)
	}
}

func TestProbabilisticSamplingDeterministic(t *testing.T) {
	prev := SetEnabled(true)
	defer SetEnabled(prev)
	SeedTraceIDs(13)
	tr := NewTracer(2048)
	tr.SetSlowThreshold(time.Hour)
	tr.SetSampleRate(0.1)

	const n = 2000
	for i := 0; i < n; i++ {
		_, s := tr.StartSpan(context.Background(), "req")
		s.End()
	}
	st := tr.SamplingStats()
	if st.KeptSampled == 0 || st.KeptSampled > n/2 {
		t.Fatalf("sampled %d of %d at rate 0.1", st.KeptSampled, n)
	}
	// Same seed ⇒ identical decisions.
	SeedTraceIDs(13)
	tr2 := NewTracer(2048)
	tr2.SetSlowThreshold(time.Hour)
	tr2.SetSampleRate(0.1)
	for i := 0; i < n; i++ {
		_, s := tr2.StartSpan(context.Background(), "req")
		s.End()
	}
	if got := tr2.SamplingStats(); got.KeptSampled != st.KeptSampled {
		t.Fatalf("replay sampled %d, want %d", got.KeptSampled, st.KeptSampled)
	}
	// Rate 0 keeps nothing probabilistically.
	tr3 := NewTracer(8)
	tr3.SetSlowThreshold(time.Hour)
	for i := 0; i < 100; i++ {
		_, s := tr3.StartSpan(context.Background(), "req")
		s.End()
	}
	if got := tr3.SamplingStats(); got.KeptSampled != 0 {
		t.Fatalf("rate 0 sampled %d", got.KeptSampled)
	}
}

func TestSpanBytes(t *testing.T) {
	prev := SetEnabled(true)
	defer SetEnabled(prev)
	tr := NewTracer(8)
	tr.SetSlowThreshold(0)

	_, span := tr.StartSpan(context.Background(), "hop")
	span.AddBytes(120, 4096)
	span.AddBytes(10, 0)
	span.End()

	got := tr.Snapshot()[0]
	if got.BytesSent != 130 || got.BytesRecv != 4096 {
		t.Errorf("bytes = %d/%d", got.BytesSent, got.BytesRecv)
	}
}

func TestTraceLogExportAndRotation(t *testing.T) {
	prev := SetEnabled(true)
	defer SetEnabled(prev)
	dir := t.TempDir()
	path := filepath.Join(dir, "traces.jsonl")
	tl, err := NewTraceLog(path, 2048)
	if err != nil {
		t.Fatal(err)
	}
	defer tl.Close()

	tr := NewTracer(8)
	tr.SetSlowThreshold(0)
	tr.SetExporter(tl)
	for i := 0; i < 64; i++ {
		ctx, root := tr.StartSpan(context.Background(), "export-me")
		_, c := tr.StartSpan(ctx, "child")
		c.End()
		root.End()
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	var root SpanJSON
	if err := json.Unmarshal([]byte(lines[0]), &root); err != nil {
		t.Fatalf("line 0 not JSON: %v", err)
	}
	if root.Name != "export-me" || root.TraceID == "" || len(root.Children) != 1 {
		t.Errorf("exported root = %+v", root)
	}
	// 64 multi-line traces overflow 2 KiB: the rotation file must exist and
	// the live file must be under budget.
	if _, err := os.Stat(path + ".1"); err != nil {
		t.Fatalf("no rotation file: %v", err)
	}
	if st, _ := os.Stat(path); st.Size() > 2048 {
		t.Errorf("live file %d bytes exceeds budget", st.Size())
	}
	if tl.Dropped() != 0 {
		t.Errorf("dropped = %d", tl.Dropped())
	}
}
