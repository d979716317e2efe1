package telemetry

import (
	"context"
	"math"
	"sync"
	"sync/atomic"
	"time"
)

// Flag marks a condition observed somewhere inside a trace. Flags are OR'd
// onto the *root* span of the local segment, so tail-based sampling can keep
// every trace that saw an error, a retry, an open breaker, or a degraded
// answer regardless of how fast it finished.
type Flag uint32

const (
	// FlagError: some span in the trace observed an error.
	FlagError Flag = 1 << iota
	// FlagRetry: a resilience retry attempt ran inside the trace.
	FlagRetry
	// FlagBreaker: a circuit breaker was open or half-open on the path.
	FlagBreaker
	// FlagDegraded: the answer was served degraded (store contribution dropped).
	FlagDegraded
)

// flagNames renders a flag set for trace JSON, in bit order.
var flagNames = []struct {
	f    Flag
	name string
}{
	{FlagError, "error"},
	{FlagRetry, "retry"},
	{FlagBreaker, "breaker"},
	{FlagDegraded, "degraded"},
}

// Span is one timed operation in a trace tree. Spans are created with
// StartSpan, which threads them through the context so nested operations
// attach as children automatically. A nil *Span is valid: every method is a
// no-op, which is how disabled instrumentation propagates without branches at
// the call sites.
type Span struct {
	name   string
	start  time.Time
	parent *Span
	tracer *Tracer
	root   *Span // the local segment root (self for roots); never nil on a real span

	traceID  TraceID
	id       SpanID
	parentID SpanID // remote parent span ID on continued segments (parent == nil)
	remote   bool   // true when this root continues a trace started elsewhere

	flags     atomic.Uint32 // root only; Mark ORs into root.flags
	bytesSent atomic.Int64
	bytesRecv atomic.Int64

	mu       sync.Mutex
	dur      time.Duration
	ended    bool
	attrs    []Label
	children []*Span
}

// spanKey is the context key under which the active span travels.
type spanKey struct{}

// StartSpan opens a span named name under the span carried by ctx (if any)
// and returns a derived context carrying the new span. When instrumentation
// is disabled it returns ctx unchanged and a nil span.
func StartSpan(ctx context.Context, name string) (context.Context, *Span) {
	return DefaultTracer().StartSpan(ctx, name)
}

// StartRemoteSpan opens a root span continuing the trace described by a
// traceparent value received from a remote peer: the new span keeps the
// remote trace ID and records the remote caller's span ID as its parent, so
// the two process-local segments join into one tree. A malformed or empty
// traceparent degrades to a plain root span. See the package-level StartSpan.
func StartRemoteSpan(ctx context.Context, name, traceparent string) (context.Context, *Span) {
	return DefaultTracer().StartRemoteSpan(ctx, name, traceparent)
}

// SpanFromContext returns the span carried by ctx, or nil.
func SpanFromContext(ctx context.Context) *Span {
	s, _ := ctx.Value(spanKey{}).(*Span)
	return s
}

// SetAttr attaches a key/value annotation to the span.
func (s *Span) SetAttr(key, value string) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.attrs = append(s.attrs, Label{Key: key, Value: value})
	s.mu.Unlock()
}

// Mark ORs a condition flag onto the span's local root, where the tracer's
// tail-sampling decision reads it.
func (s *Span) Mark(f Flag) {
	if s == nil {
		return
	}
	r := s.root
	for {
		old := r.flags.Load()
		if old&uint32(f) == uint32(f) || r.flags.CompareAndSwap(old, old|uint32(f)) {
			return
		}
	}
}

// Flags returns the condition flags accumulated on the span's local root.
func (s *Span) Flags() Flag {
	if s == nil {
		return 0
	}
	return Flag(s.root.flags.Load())
}

// AddBytes accumulates wire bytes attributed to this span (one hop's frame
// sizes). Safe for concurrent use.
func (s *Span) AddBytes(sent, received int64) {
	if s == nil {
		return
	}
	if sent != 0 {
		s.bytesSent.Add(sent)
	}
	if received != 0 {
		s.bytesRecv.Add(received)
	}
}

// TraceParent renders the traceparent value a remote peer should continue
// from ("" for nil spans) — carried on wire request frames.
func (s *Span) TraceParent() string {
	if s == nil {
		return ""
	}
	return FormatTraceParent(s.traceID, s.id)
}

// End closes the span, recording its duration. Ending a root span hands the
// finished tree to the tracer, which applies the tail-sampling policy. End is
// idempotent; ending a child after its root was ended is harmless (the late
// duration is recorded but the tree was already snapshotted).
func (s *Span) End() {
	if s == nil {
		return
	}
	s.mu.Lock()
	if s.ended {
		s.mu.Unlock()
		return
	}
	s.ended = true
	s.dur = time.Since(s.start)
	d := s.dur
	s.mu.Unlock()
	if s.parent == nil && s.tracer != nil {
		s.tracer.finishRoot(s, d)
	}
}

// Duration returns the span's recorded duration (zero until End).
func (s *Span) Duration() time.Duration {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.dur
}

func (s *Span) addChild(c *Span) {
	s.mu.Lock()
	s.children = append(s.children, c)
	s.mu.Unlock()
}

// SpanJSON is the JSON rendering of a finished span tree, served by the
// server's /debug/traces endpoint and the JSONL trace log.
type SpanJSON struct {
	Name         string            `json:"name"`
	TraceID      string            `json:"trace_id,omitempty"`
	SpanID       string            `json:"span_id,omitempty"`
	ParentSpanID string            `json:"parent_span_id,omitempty"`
	Start        time.Time         `json:"start"`
	DurationMS   float64           `json:"duration_ms"`
	Flags        []string          `json:"flags,omitempty"`
	BytesSent    int64             `json:"bytes_sent,omitempty"`
	BytesRecv    int64             `json:"bytes_recv,omitempty"`
	Attrs        map[string]string `json:"attrs,omitempty"`
	Children     []SpanJSON        `json:"children,omitempty"`
}

// JSON renders the span tree rooted at s.
func (s *Span) JSON() SpanJSON {
	if s == nil {
		return SpanJSON{}
	}
	s.mu.Lock()
	out := SpanJSON{
		Name:       s.name,
		Start:      s.start,
		DurationMS: float64(s.dur.Nanoseconds()) / 1e6,
	}
	if !s.traceID.IsZero() {
		out.TraceID = s.traceID.String()
	}
	if s.id != 0 {
		out.SpanID = s.id.String()
	}
	switch {
	case s.parent != nil:
		out.ParentSpanID = s.parent.id.String()
	case s.parentID != 0:
		out.ParentSpanID = s.parentID.String()
	}
	if len(s.attrs) > 0 {
		out.Attrs = make(map[string]string, len(s.attrs))
		for _, a := range s.attrs {
			out.Attrs[a.Key] = a.Value
		}
	}
	children := append([]*Span(nil), s.children...)
	s.mu.Unlock()
	if s.parent == nil {
		fl := Flag(s.flags.Load())
		for _, fn := range flagNames {
			if fl&fn.f != 0 {
				out.Flags = append(out.Flags, fn.name)
			}
		}
	}
	out.BytesSent = s.bytesSent.Load()
	out.BytesRecv = s.bytesRecv.Load()
	for _, c := range children {
		out.Children = append(out.Children, c.JSON())
	}
	return out
}

// Exporter receives every trace the tail sampler keeps, already rendered to
// JSON. Implementations must be safe for concurrent use; TraceLog is the
// in-tree JSONL exporter.
type Exporter interface {
	ExportTrace(root SpanJSON)
}

// DefaultSlowThreshold is the initial slow-query threshold of a tracer.
const DefaultSlowThreshold = 250 * time.Millisecond

// DefaultTraceCapacity is the ring capacity of a tracer's kept-trace log.
const DefaultTraceCapacity = 128

// DefaultSampleRate is the probabilistic keep rate the server applies to
// fast, unflagged traces; it is fixed, not a flag. Tracers themselves default
// to 0 so existing tests and embedders see only the slow/flagged policy.
const DefaultSampleRate = 0.01

// pendingCapacity bounds the buffer of recently finished, not-yet-kept local
// roots: when a later segment of the same trace is kept (slow client root
// arriving after a fast server segment, say), the buffered segments are swept
// into the kept set so the exported trace is whole.
const pendingCapacity = 256

// recentKeptCapacity bounds the set of recently kept trace IDs used to sweep
// in segments that finish *after* the keep decision.
const recentKeptCapacity = 128

// Tracer owns the kept-trace log. Finished root spans pass a tail-based
// sampling decision: slow roots (duration ≥ threshold), flagged roots
// (error/retry/breaker/degraded), roots of traces kept moments ago, and a
// deterministic trace-ID-hash sample of the rest are retained in a fixed-size
// ring (newest evicting oldest) and handed to the exporter, if any.
type Tracer struct {
	slowNanos  atomic.Int64
	sampleBits atomic.Uint64 // math.Float64bits of the sample rate

	mu   sync.Mutex
	ring []*Span
	next int

	seen        uint64 // total roots observed
	kept        uint64 // roots retained
	keptSlow    uint64 // … because duration crossed the threshold
	keptFlagged uint64 // … because a condition flag was set
	keptSampled uint64 // … by the probabilistic sampler
	keptSwept   uint64 // … because another segment of the trace was kept

	pending     []*Span // bounded ring of recent non-kept roots
	pendingNext int
	recent      []TraceID // bounded ring of recently kept trace IDs
	recentNext  int

	exporter Exporter
}

// NewTracer creates a tracer with the given ring capacity (<= 0 selects
// DefaultTraceCapacity), DefaultSlowThreshold, and sampling rate 0.
func NewTracer(capacity int) *Tracer {
	if capacity <= 0 {
		capacity = DefaultTraceCapacity
	}
	t := &Tracer{ring: make([]*Span, 0, capacity)}
	t.slowNanos.Store(int64(DefaultSlowThreshold))
	return t
}

var defaultTracer = NewTracer(DefaultTraceCapacity)

// DefaultTracer returns the process-wide tracer used by StartSpan.
func DefaultTracer() *Tracer { return defaultTracer }

// SetSlowThreshold changes the duration above which a finished root span is
// kept. Zero or negative keeps every root span.
func (t *Tracer) SetSlowThreshold(d time.Duration) { t.slowNanos.Store(int64(d)) }

// SlowThreshold returns the current slow-query threshold.
func (t *Tracer) SlowThreshold() time.Duration { return time.Duration(t.slowNanos.Load()) }

// SetSampleRate sets the probabilistic keep rate in [0,1] for fast, unflagged
// traces. The decision hashes the trace ID, so every process tracing the same
// trace reaches the same verdict and sampled trees stay whole.
func (t *Tracer) SetSampleRate(rate float64) {
	if rate < 0 || math.IsNaN(rate) {
		rate = 0
	}
	if rate > 1 {
		rate = 1
	}
	t.sampleBits.Store(math.Float64bits(rate))
}

// SampleRate returns the current probabilistic keep rate.
func (t *Tracer) SampleRate() float64 { return math.Float64frombits(t.sampleBits.Load()) }

// SetExporter installs the sink that receives every kept trace (nil
// disables export). Kept traces are rendered to JSON outside the tracer lock.
func (t *Tracer) SetExporter(e Exporter) {
	t.mu.Lock()
	t.exporter = e
	t.mu.Unlock()
}

// StartSpan opens a span on this tracer; see the package-level StartSpan.
func (t *Tracer) StartSpan(ctx context.Context, name string) (context.Context, *Span) {
	if !enabled.Load() {
		return ctx, nil
	}
	s := &Span{name: name, start: time.Now(), tracer: t, id: NewSpanID()}
	if parent := SpanFromContext(ctx); parent != nil {
		s.parent = parent
		s.root = parent.root
		s.traceID = parent.root.traceID
		parent.addChild(s)
	} else {
		s.root = s
		s.traceID = NewTraceID()
	}
	return context.WithValue(ctx, spanKey{}, s), s
}

// StartRemoteSpan opens a root span continuing a remote trace; see the
// package-level StartRemoteSpan.
func (t *Tracer) StartRemoteSpan(ctx context.Context, name, traceparent string) (context.Context, *Span) {
	if !enabled.Load() {
		return ctx, nil
	}
	trace, parent, ok := ParseTraceParent(traceparent)
	ctx, s := t.StartSpan(ctx, name)
	if ok && s != nil && s.parent == nil {
		s.traceID = trace
		s.parentID = parent
		s.remote = true
	}
	return ctx, s
}

// sampleTrace is the deterministic probabilistic decision: hash the low
// trace-ID word into [0,1) and keep when below the rate. Every segment of a
// trace draws the same verdict on every process.
func sampleTrace(id TraceID, rate float64) bool {
	if rate <= 0 {
		return false
	}
	if rate >= 1 {
		return true
	}
	// The ID words are splitmix64 outputs, already uniform; fold both words
	// so seeded low-entropy IDs still spread.
	x := id.Lo ^ (id.Hi * 0x9e3779b97f4a7c15)
	return float64(x>>11)/(1<<53) < rate
}

func (t *Tracer) finishRoot(s *Span, d time.Duration) {
	var export []*Span
	t.mu.Lock()
	t.seen++
	keep := false
	switch {
	case Flag(s.flags.Load()) != 0:
		keep = true
		t.keptFlagged++
	case d >= time.Duration(t.slowNanos.Load()):
		keep = true
		t.keptSlow++
	case t.traceRecentlyKeptLocked(s.traceID):
		keep = true
		t.keptSwept++
	case sampleTrace(s.traceID, t.SampleRate()):
		keep = true
		t.keptSampled++
	}
	if !keep {
		// Buffer briefly: a sibling segment of this trace may yet be kept.
		if cap(t.pending) == 0 {
			t.pending = make([]*Span, 0, pendingCapacity)
		}
		if len(t.pending) < cap(t.pending) {
			t.pending = append(t.pending, s)
		} else {
			t.pending[t.pendingNext] = s
			t.pendingNext = (t.pendingNext + 1) % cap(t.pending)
		}
		t.mu.Unlock()
		return
	}
	t.noteKeptLocked(s.traceID)
	t.insertLocked(s)
	export = append(export, s)
	// Sweep earlier segments of the same trace out of the pending buffer.
	for i := 0; i < len(t.pending); i++ {
		p := t.pending[i]
		if p == nil || p.traceID != s.traceID {
			continue
		}
		t.pending[i] = nil
		t.kept++
		t.keptSwept++
		t.insertLocked(p)
		export = append(export, p)
	}
	t.kept++
	e := t.exporter
	t.mu.Unlock()
	if e != nil {
		for _, sp := range export {
			e.ExportTrace(sp.JSON())
		}
	}
}

func (t *Tracer) insertLocked(s *Span) {
	if len(t.ring) < cap(t.ring) {
		t.ring = append(t.ring, s)
		return
	}
	t.ring[t.next] = s
	t.next = (t.next + 1) % cap(t.ring)
}

func (t *Tracer) traceRecentlyKeptLocked(id TraceID) bool {
	if id.IsZero() {
		return false
	}
	for _, r := range t.recent {
		if r == id {
			return true
		}
	}
	return false
}

func (t *Tracer) noteKeptLocked(id TraceID) {
	if id.IsZero() || t.traceRecentlyKeptLocked(id) {
		return
	}
	if cap(t.recent) == 0 {
		t.recent = make([]TraceID, 0, recentKeptCapacity)
	}
	if len(t.recent) < cap(t.recent) {
		t.recent = append(t.recent, id)
		return
	}
	t.recent[t.recentNext] = id
	t.recentNext = (t.recentNext + 1) % cap(t.recent)
}

// SamplingStats breaks the tail-sampling decisions down by reason.
type SamplingStats struct {
	Seen        uint64  `json:"seen"`
	Kept        uint64  `json:"kept"`
	KeptSlow    uint64  `json:"kept_slow"`
	KeptFlagged uint64  `json:"kept_flagged"`
	KeptSampled uint64  `json:"kept_sampled"`
	KeptSwept   uint64  `json:"kept_swept"`
	SampleRate  float64 `json:"sample_rate"`
}

// SamplingStats returns the tail-sampling decision counters.
func (t *Tracer) SamplingStats() SamplingStats {
	t.mu.Lock()
	defer t.mu.Unlock()
	return SamplingStats{
		Seen:        t.seen,
		Kept:        t.kept,
		KeptSlow:    t.keptSlow,
		KeptFlagged: t.keptFlagged,
		KeptSampled: t.keptSampled,
		KeptSwept:   t.keptSwept,
		SampleRate:  t.SampleRate(),
	}
}

// Snapshot returns the retained traces, newest first.
func (t *Tracer) Snapshot() []SpanJSON {
	t.mu.Lock()
	spans := make([]*Span, 0, len(t.ring))
	// The ring's oldest entry sits at next once it has wrapped.
	for i := 0; i < len(t.ring); i++ {
		spans = append(spans, t.ring[(t.next+i)%len(t.ring)])
	}
	t.mu.Unlock()
	out := make([]SpanJSON, 0, len(spans))
	for i := len(spans) - 1; i >= 0; i-- {
		out = append(out, spans[i].JSON())
	}
	return out
}

// Reset empties the kept-trace log, the pending buffer, and the counters.
func (t *Tracer) Reset() {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.ring = t.ring[:0]
	t.next = 0
	t.pending = t.pending[:0]
	t.pendingNext = 0
	t.recent = t.recent[:0]
	t.recentNext = 0
	t.seen, t.kept = 0, 0
	t.keptSlow, t.keptFlagged, t.keptSampled, t.keptSwept = 0, 0, 0, 0
}
