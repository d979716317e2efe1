// Package wire exposes any core.Store over TCP so that a polystore can span
// machines, the way the paper's distributed deployment spreads its stores
// over EC2 regions. Each request and response is one length-prefixed frame
// (4-byte big-endian length followed by the body) in the one binary format
// of codec.go — like the paper's stores, each of which has exactly one driver
// protocol, a peer speaks this format or fails at dial.
//
// The Server wraps a store and serves any number of concurrent connections;
// the Client implements core.Store over a small connection pool so the
// concurrent augmenters can issue parallel round trips, just like native
// database drivers do.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sync"

	"quepa/internal/core"
	"quepa/internal/telemetry"
)

// maxFrame bounds a single frame to guard against corrupted lengths (and
// against callers shipping unshippable payloads). A variable so the size-
// violation tests can shrink it; treat it as a constant everywhere else.
var maxFrame = 64 << 20 // 64 MiB

// ErrFrameTooLarge is the sentinel every frame-size violation matches via
// errors.Is. The concrete error is always a *FrameTooLargeError naming the
// offending length and, when known, the op.
var ErrFrameTooLarge = errors.New("wire: frame exceeds size limit")

// FrameTooLargeError reports a frame that violated maxFrame. The client
// treats it as non-retryable: a 64 MiB-overflow frame is the same size on
// every attempt, so retrying can never succeed.
type FrameTooLargeError struct {
	// Op is the operation whose frame overflowed ("" when the violation was
	// detected on an incoming length header, before any op is known).
	Op string
	// Len is the offending body length in bytes.
	Len int
}

func (e *FrameTooLargeError) Error() string {
	op := e.Op
	if op == "" {
		op = "incoming"
	}
	return fmt.Sprintf("wire: %s frame of %d bytes exceeds the %d-byte limit", op, e.Len, maxFrame)
}

func (e *FrameTooLargeError) Unwrap() error { return ErrFrameTooLarge }

// request ops.
const (
	opGet      = "get"
	opGetBatch = "getbatch"
	opQuery    = "query"
	opMeta     = "meta"
	opKeyField = "keyfield"
	// opReach expands a weighted key frontier one hop over the peer's A'
	// shard: the cluster coordinator's scatter-gather primitive.
	opReach = "reach"
	// opSnapshot ships the peer's epoch-stamped A' shard in the binary
	// checkpoint format, for shard bootstrap and ring rebalance.
	opSnapshot = "snapshot"
)

var wireOps = []string{opGet, opGetBatch, opQuery, opMeta, opKeyField, opReach, opSnapshot}

// Per-op client round-trip histograms and error counters, plus the server's
// request tally, resolved once at init so the RPC path does a single
// histogram observation per round trip.
var (
	clientHists    = map[string]*telemetry.Histogram{}
	clientErrs     = map[string]*telemetry.Counter{}
	clientRetries  = map[string]*telemetry.Counter{}
	clientTimeouts = map[string]*telemetry.Counter{}
	serverReqs     = map[string]*telemetry.Counter{}
	serverBadOps   *telemetry.Counter

	// clientFrames counts the frames clients actually put on the wire, per
	// op. With multiplexing and get-batching, this runs well below the
	// logical request count (Client.RoundTrips); the per-op breakdown is
	// what lets the frames-saved-vs-round-trips story be told per op.
	clientFrames = map[string]*telemetry.Counter{}

	// Per-op client byte accounting, both directions (headers included) — the
	// client-side counterpart of quepa_wire_server_bytes_total, broken down by
	// op so what a scatter change saves shows up as shrinking reach bytes.
	clientBytesOut = map[string]*telemetry.Counter{}
	clientBytesIn  = map[string]*telemetry.Counter{}
)

// Server-side byte accounting, both directions, across all connections.
var (
	serverBytesIn = telemetry.NewCounter("quepa_wire_server_bytes_total",
		"frame bytes moved by wire servers (headers included)", telemetry.L("dir", "in"))
	serverBytesOut = telemetry.NewCounter("quepa_wire_server_bytes_total",
		"frame bytes moved by wire servers (headers included)", telemetry.L("dir", "out"))
)

func init() {
	for _, op := range wireOps {
		label := telemetry.L("op", op)
		clientHists[op] = telemetry.NewHistogram("quepa_wire_roundtrip_duration_seconds",
			"client-observed latency of wire RPC round trips", nil, label)
		clientErrs[op] = telemetry.NewCounter("quepa_wire_errors_total",
			"wire RPC round trips that failed (transport or remote error)", label)
		clientRetries[op] = telemetry.NewCounter("quepa_wire_retries_total",
			"wire RPC attempts beyond the first (transport failures retried)", label)
		clientTimeouts[op] = telemetry.NewCounter("quepa_wire_timeouts_total",
			"wire RPC round trips that exhausted the per-attempt deadline", label)
		serverReqs[op] = telemetry.NewCounter("quepa_wire_server_requests_total",
			"requests dispatched by wire servers", label)
		clientFrames[op] = telemetry.NewCounter("quepa_wire_client_frames_total",
			"request frames written by wire clients (physical attempts, not logical requests)", label)
		clientBytesOut[op] = telemetry.NewCounter("quepa_wire_client_bytes_total",
			"frame bytes moved by wire clients (headers included)", label, telemetry.L("dir", "out"))
		clientBytesIn[op] = telemetry.NewCounter("quepa_wire_client_bytes_total",
			"frame bytes moved by wire clients (headers included)", label, telemetry.L("dir", "in"))
	}
	serverBadOps = telemetry.NewCounter("quepa_wire_server_requests_total",
		"requests dispatched by wire servers", telemetry.L("op", "unknown"))
}

// request is one frame a client sends. The json tags serve the tests'
// reference round trip only; nothing outside _test.go encodes JSON.
type request struct {
	// ID tags the frame for multiplexing: the server dispatches every frame
	// concurrently and may reply out of order, echoing the ID on the response
	// so the client's demux reader can route it to its waiter.
	ID         uint64 `json:"id,omitempty"`
	Op         string `json:"op"`
	Collection string `json:"collection,omitempty"`
	Key        string `json:"key,omitempty"`
	// Keys are a getbatch's keys or a reach op's frontier (parallel to Probs,
	// key-sorted within a segment, front-coded on the wire).
	Keys  []string `json:"keys,omitempty"`
	Query string   `json:"query,omitempty"`
	// Probs carries the frontier weights parallel to Keys for the reach op:
	// the best path probability accumulated at each frontier key so far.
	Probs []float64 `json:"probs,omitempty"`
	// Trace carries the caller's traceparent ("00-<trace>-<span>-01") so the
	// server continues the distributed trace; empty means "untraced".
	Trace string `json:"tp,omitempty"`
	// Segs splits a reach frontier (Keys with Probs) into consecutive runs,
	// one per origin of a many-origin traversal: the peer expands each run on
	// its own, so probabilities never merge across origins, and answers with
	// its hits split the same way. Absent means one segment.
	Segs []int `json:"segs,omitempty"`
}

type wireObject struct {
	Database   string            `json:"db"`
	Collection string            `json:"coll"`
	Key        string            `json:"key"`
	Fields     map[string]string `json:"fields"`
}

type response struct {
	// ID echoes the request's frame ID.
	ID          uint64       `json:"id,omitempty"`
	Objects     []wireObject `json:"objects,omitempty"`
	Error       string       `json:"error,omitempty"`
	NotFound    bool         `json:"notFound,omitempty"`
	Name        string       `json:"name,omitempty"`
	Kind        int          `json:"kind,omitempty"`
	Collections []string     `json:"collections,omitempty"`
	KeyField    string       `json:"keyField,omitempty"`
	// Hits answer a reach op: the one-hop expansion of the request frontier
	// over the peer's A' shard, deduplicated by max probability. Expansion
	// output is key-sorted, which is what makes front-coding it pay.
	Hits []RemoteHit `json:"hits,omitempty"`
	// Nodes and Edges report the traversal work of a reach op, so the
	// coordinator can attribute index effort to the profiled query.
	Nodes int `json:"nodes,omitempty"`
	Edges int `json:"edges,omitempty"`
	// Snapshot answers a snapshot op: the peer's A' shard in the binary
	// checkpoint format, stamped with its WAL epoch.
	Snapshot []byte `json:"snapshot,omitempty"`
	Epoch    uint64 `json:"epoch,omitempty"`
	// Segs splits Hits into one run per request segment, in request order (a
	// run may be empty). Absent when the request carried no Segs.
	Segs []int `json:"segs,omitempty"`
}

// errSegments rejects a segment column that does not partition its list.
var errSegments = errors.New("wire: reach segments do not sum to the list they split")

// checkSegs validates a segment column against the length of the list it
// splits: every run non-negative, the runs summing exactly to total. An
// absent column is the one-segment default and always valid.
func checkSegs(segs []int, total int) error {
	if len(segs) == 0 {
		return nil
	}
	left := total
	for _, n := range segs {
		if n < 0 || n > left {
			return errSegments
		}
		left -= n
	}
	if left != 0 {
		return errSegments
	}
	return nil
}

// RemoteHit is one key produced by a frontier expansion on a remote shard:
// the key in its "db.coll.key" form and the best path probability through
// the expanded hop (source frontier weight times edge probability).
type RemoteHit struct {
	Key  string  `json:"k"`
	Prob float64 `json:"p"`
}

// ReachInfo reports the traversal work one frontier expansion performed.
type ReachInfo struct {
	Nodes int
	Edges int
}

func toWire(o core.Object) wireObject {
	return wireObject{
		Database:   o.GK.Database,
		Collection: o.GK.Collection,
		Key:        o.GK.Key,
		Fields:     o.Fields,
	}
}

func fromWire(w wireObject) core.Object {
	return core.NewObject(core.NewGlobalKey(w.Database, w.Collection, w.Key), w.Fields)
}

// ---------------------------------------------------------------------------
// Frame I/O

// bodyBuf is a pooled frame read buffer. The pointer indirection keeps the
// pool from allocating a fresh interface box per Put.
type bodyBuf struct{ b []byte }

var bodyPool = sync.Pool{New: func() any { return &bodyBuf{b: make([]byte, 512)} }}

func getBody(n int) *bodyBuf {
	bb := bodyPool.Get().(*bodyBuf)
	if cap(bb.b) < n {
		bb.b = make([]byte, n)
	}
	bb.b = bb.b[:n]
	return bb
}

func putBody(bb *bodyBuf) {
	if cap(bb.b) > poolableCap {
		return
	}
	bodyPool.Put(bb)
}

// writeRequestFrame sends req, returning the bytes put on the wire (header
// included) so the caller's span and byte counters can account for them. The
// frame serializes into a pooled buffer and goes out in one Write.
func writeRequestFrame(w io.Writer, req *request) (int, error) {
	e := getEncoder()
	defer putEncoder(e)
	if err := e.encodeRequest(req); err != nil {
		return 0, err
	}
	frame, err := e.finish(req.Op)
	if err != nil {
		return 0, err
	}
	return w.Write(frame)
}

// writeResponseFrame sends resp; op names the dispatched operation in
// size-violation errors.
func writeResponseFrame(w io.Writer, resp *response, op string) (int, error) {
	e := getEncoder()
	defer putEncoder(e)
	e.encodeResponse(resp)
	frame, err := e.finish(op)
	if err != nil {
		return 0, err
	}
	return w.Write(frame)
}

// readFrame receives one length-prefixed frame and hands its body to decode.
// The body lands in a pooled buffer that is recycled before returning, so it
// is copied once into a string the decoder slices what it keeps out of.
func readFrame(r io.Reader, decode func(body string) error) (int, error) {
	var head [4]byte
	if _, err := io.ReadFull(r, head[:]); err != nil {
		return 0, err
	}
	n := binary.BigEndian.Uint32(head[:])
	if int64(n) > int64(maxFrame) {
		return 0, &FrameTooLargeError{Len: int(n)}
	}
	bb := getBody(int(n))
	defer putBody(bb)
	if _, err := io.ReadFull(r, bb.b); err != nil {
		return 0, err
	}
	if err := decode(string(bb.b)); err != nil {
		return 0, fmt.Errorf("wire: decoding frame: %w", err)
	}
	return len(head) + int(n), nil
}

// readRequestFrame receives one request frame.
func readRequestFrame(r io.Reader, req *request) (int, error) {
	return readFrame(r, func(body string) error { return decodeRequest(body, req) })
}

// readResponseFrame receives one response frame.
func readResponseFrame(r io.Reader, resp *response) (int, error) {
	return readFrame(r, func(body string) error { return decodeResponse(body, resp) })
}
