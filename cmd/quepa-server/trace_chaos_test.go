package main

import (
	"encoding/json"
	"net/http"
	"net/url"
	"strings"
	"testing"

	"quepa/internal/netsim"
	"quepa/internal/resilience"
	"quepa/internal/server"
	"quepa/internal/telemetry"
	"quepa/internal/workload"
)

// withKeepEverythingTracer enables telemetry and configures the process
// tracer to keep every completed trace (slow threshold 0), restoring the
// previous state on cleanup.
func withKeepEverythingTracer(t *testing.T) *telemetry.Tracer {
	t.Helper()
	prev := telemetry.SetEnabled(true)
	tracer := telemetry.DefaultTracer()
	prevSlow := tracer.SlowThreshold()
	prevRate := tracer.SampleRate()
	tracer.SetSlowThreshold(0)
	tracer.SetSampleRate(0)
	tracer.Reset()
	t.Cleanup(func() {
		tracer.SetSlowThreshold(prevSlow)
		tracer.SetSampleRate(prevRate)
		tracer.Reset()
		telemetry.SetEnabled(prev)
	})
	return tracer
}

// collectSpans flattens a span tree into a slice, root included.
func collectSpans(t telemetry.SpanJSON) []telemetry.SpanJSON {
	out := []telemetry.SpanJSON{t}
	for _, c := range t.Children {
		out = append(out, collectSpans(c)...)
	}
	return out
}

func hasFlag(t telemetry.SpanJSON, flag string) bool {
	for _, f := range t.Flags {
		if f == flag {
			return true
		}
	}
	return false
}

// TestChaosTraceContinuity drives the full wire stack — augmenter, wire
// clients, loopback wire servers, chaos-wrapped store — and asserts that one
// request produces one connected trace: the client's HTTP root span and the
// server-side wire segments share a trace ID, the server segments parent
// onto the exact client span that sent the frame, per-hop frame bytes are
// recorded, and degraded / breaker-touching requests carry the flags that
// make the tail sampler keep them.
func TestChaosTraceContinuity(t *testing.T) {
	spec := workload.DefaultSpec()
	spec.Artists = 10
	spec.AlbumsPerArtist = 2
	built, err := workload.Build(spec, workload.Colocated())
	if err != nil {
		t.Fatal(err)
	}

	// The catalogue store is down for good: every fetch through it degrades
	// the answer, and with FailureThreshold 1 the first failure opens the
	// breaker.
	cat, err := built.Poly.Database("catalogue")
	if err != nil {
		t.Fatal(err)
	}
	chaos := netsim.NewChaos(cat, netsim.FaultPlan{Down: []netsim.Window{{From: 1}}}, nil)
	built.Poly.Deregister("catalogue")
	if err := built.Poly.Register(chaos); err != nil {
		t.Fatal(err)
	}

	// -wire mode re-homes every store behind a loopback wire server, so
	// traces must cross real frames to stay whole.
	s := mustNew(t, server.Config{Workload: built, Wire: true, Pool: 2,
		Breaker: resilience.BreakerConfig{FailureThreshold: 1}})
	// New applies the server's tracing settings; keep everything from here.
	tracer := withKeepEverythingTracer(t)
	telemetry.SeedTraceIDs(42)

	query, err := built.Query("transactions", 4)
	if err != nil {
		t.Fatal(err)
	}
	search := "/search?db=transactions&q=" + url.QueryEscape(query)

	// Search through the server's handler: its instrument middleware is
	// where the HTTP root span is born.
	handler := s.Handler()

	// Search 1: catalogue fails over the wire -> degraded partial answer.
	// Search 2: the breaker is open -> fast-rejected, still degraded.
	for i := 0; i < 2; i++ {
		if code, body := do(t, handler, "GET", search); code != http.StatusOK {
			t.Fatalf("search %d = %d %v", i+1, code, body)
		}
	}

	roots := tracer.Snapshot() // newest first
	var degradedRoot, breakerRoot *telemetry.SpanJSON
	for i := range roots {
		if roots[i].Name != "http /search" {
			continue
		}
		if hasFlag(roots[i], "breaker") && breakerRoot == nil {
			breakerRoot = &roots[i]
		} else if hasFlag(roots[i], "degraded") && degradedRoot == nil {
			degradedRoot = &roots[i]
		}
	}
	if degradedRoot == nil {
		t.Fatalf("no degraded /search root among %d kept traces", len(roots))
	}
	if breakerRoot == nil {
		t.Fatalf("no breaker-flagged /search root among %d kept traces", len(roots))
	}
	if !hasFlag(*degradedRoot, "degraded") {
		t.Errorf("first search flags = %v, want degraded", degradedRoot.Flags)
	}
	if degradedRoot.TraceID == "" {
		t.Fatal("degraded root has no trace ID")
	}

	// Inside the degraded request: a wire client span for the catalogue
	// fetch, flagged as errored, with the sent frame bytes accounted.
	spans := collectSpans(*degradedRoot)
	clientSpanIDs := map[string]bool{}
	var wireCat *telemetry.SpanJSON
	for i := range spans {
		clientSpanIDs[spans[i].SpanID] = true
		if spans[i].TraceID != degradedRoot.TraceID {
			t.Errorf("span %s has trace %s, want %s (one trace per request)",
				spans[i].Name, spans[i].TraceID, degradedRoot.TraceID)
		}
		if strings.HasPrefix(spans[i].Name, "wire.") && spans[i].Attrs["store"] == "catalogue" {
			wireCat = &spans[i]
		}
	}
	if wireCat == nil {
		t.Fatalf("degraded request has no wire span for catalogue: %+v", spans)
	}
	if wireCat.BytesSent == 0 {
		t.Error("wire client span recorded no sent frame bytes")
	}

	// The loopback wire servers continued the trace: their segments are
	// separate roots in the tracer, but they carry the same trace ID and
	// parent onto the exact client span that sent the frame.
	serverSegments := 0
	for _, r := range roots {
		if !strings.HasPrefix(r.Name, "wire.server.") || r.TraceID != degradedRoot.TraceID {
			continue
		}
		serverSegments++
		if !clientSpanIDs[r.ParentSpanID] {
			t.Errorf("server segment %s parents onto unknown span %s", r.Name, r.ParentSpanID)
		}
		if r.BytesRecv == 0 {
			t.Errorf("server segment %s recorded no received frame bytes", r.Name)
		}
	}
	if serverSegments == 0 {
		t.Fatalf("no wire.server.* segment shares the request's trace %s", degradedRoot.TraceID)
	}

	// The breaker-open request never reached the store but its trace says
	// why it degraded: breaker flag plus the breaker_state attribute.
	foundState := false
	for _, sp := range collectSpans(*breakerRoot) {
		if sp.Attrs["breaker_state"] != "" {
			foundState = true
		}
	}
	if !foundState {
		t.Errorf("breaker-open request has no breaker_state attribute: %+v", breakerRoot)
	}

	// Tail sampling kept these traces for cause, not by chance.
	st := tracer.SamplingStats()
	if st.KeptSampled != 0 {
		t.Errorf("sampling stats = %+v: probabilistic keeps with rate 0", st)
	}
	if st.Kept < 2 {
		t.Errorf("kept %d traces, want at least the two searches", st.Kept)
	}
}

// TestChaosTraceNamesEveryDegradedStore: with two stores down, the kept
// trace of one search names both on its augment.objects span, one
// degraded.<store> attribute each, as /debug/traces serves it.
func TestChaosTraceNamesEveryDegradedStore(t *testing.T) {
	built := smallWorkload(t)
	for _, name := range []string{"catalogue", "discount"} {
		st, err := built.Poly.Database(name)
		if err != nil {
			t.Fatal(err)
		}
		built.Poly.Deregister(name)
		if err := built.Poly.Register(netsim.NewChaos(st, netsim.FaultPlan{Down: []netsim.Window{{From: 1}}}, nil)); err != nil {
			t.Fatal(err)
		}
	}
	s := mustNew(t, server.Config{Workload: built})
	withKeepEverythingTracer(t)

	q := url.QueryEscape(`SELECT * FROM inventory WHERE seq < 2`)
	if code, body := do(t, s.Handler(), "GET", "/search?db=transactions&level=1&q="+q); code != http.StatusOK {
		t.Fatalf("search = %d %v", code, body)
	}
	code, body := do(t, s.Handler(), "GET", "/debug/traces?route=/search")
	if code != http.StatusOK {
		t.Fatalf("/debug/traces = %d", code)
	}
	traces, _ := body["traces"].([]any)
	if len(traces) != 1 {
		t.Fatalf("kept /search traces = %d, want 1", len(traces))
	}
	raw, err := json.Marshal(traces[0])
	if err != nil {
		t.Fatal(err)
	}
	var root telemetry.SpanJSON
	if err := json.Unmarshal(raw, &root); err != nil {
		t.Fatal(err)
	}
	var aug *telemetry.SpanJSON
	for _, sp := range collectSpans(root) {
		if sp.Name == "augment.objects" {
			aug = &sp
		}
	}
	if aug == nil {
		t.Fatalf("trace has no augment.objects span: %+v", root)
	}
	for _, name := range []string{"catalogue", "discount"} {
		if aug.Attrs["degraded."+name] == "" {
			t.Errorf("augment.objects attrs %v do not name degraded store %s", aug.Attrs, name)
		}
	}
}
