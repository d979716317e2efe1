// Package wire exposes any core.Store over TCP so that a polystore can span
// machines, the way the paper's distributed deployment spreads its stores
// over EC2 regions. Each request and response is one length-prefixed frame
// (4-byte big-endian length followed by the body); the body is either a JSON
// document (codec v1, the compatibility format every server keeps accepting)
// or the compact binary encoding of codec v2 (see codec.go), negotiated per
// connection through the meta exchange.
//
// The Server wraps a store and serves any number of concurrent connections;
// the Client implements core.Store over a small connection pool so the
// concurrent augmenters can issue parallel round trips, just like native
// database drivers do.
package wire

import (
	"encoding/binary"
	"encoding/json"
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

type request struct {
	// ID tags the frame for multiplexing: a non-zero ID tells the server it
	// may dispatch concurrently and reply out of order, echoing the ID on the
	// response. ID 0 selects the legacy one-at-a-time exchange, so old
	// clients keep working against new servers and vice versa (a server that
	// ignores IDs echoes ID 0, which a mux client treats as a broken conn and
	// retries sequentially-compatible ops on a fresh one).
	ID         uint64   `json:"id,omitempty"`
	Op         string   `json:"op"`
	Collection string   `json:"collection,omitempty"`
	Key        string   `json:"key,omitempty"`
	Keys       []string `json:"keys,omitempty"`
	Query      string   `json:"query,omitempty"`
	// Database routes get/getbatch on a cluster peer that serves several
	// databases behind one listener (a shard node). Empty selects the classic
	// single-store dispatch, so legacy clients and servers interoperate.
	Database string `json:"db,omitempty"`
	// Probs carries the frontier weights parallel to Keys for the reach op:
	// the best path probability accumulated at each frontier key so far.
	Probs []float64 `json:"probs,omitempty"`
	// Trace carries the caller's traceparent ("00-<trace>-<span>-01") so the
	// server continues the distributed trace. Optional: legacy peers ignore
	// the extra field, and an empty value means "untraced".
	Trace string `json:"tp,omitempty"`
	// Codec offers the client's maximum frame codec on the meta exchange
	// (the codec-v2 negotiation). Legacy peers ignore it and omit the echo,
	// which pins the connection to JSON.
	Codec int `json:"codec,omitempty"`
	// Frontier is the front-coded form of a reach op's frontier: like Keys
	// (parallel to Probs), but sent only on codec-v3 connections, where the
	// binary layout elides the prefix each key shares with its predecessor
	// (frontiers are key-sorted within a segment). v1 JSON and v2 binary
	// peers keep receiving plain Keys.
	Frontier []string `json:"fr,omitempty"`
	// Segs splits a reach frontier (Keys or Frontier, with Probs) into
	// consecutive runs, one per origin of a many-origin traversal: the peer
	// expands each run on its own, so probabilities never merge across
	// origins, and answers with its hits split the same way. Absent means one
	// segment, which keeps single-origin frames byte-identical to what peers
	// exchanged before the column existed.
	Segs []int `json:"segs,omitempty"`
}

type wireObject struct {
	Database   string            `json:"db"`
	Collection string            `json:"coll"`
	Key        string            `json:"key"`
	Fields     map[string]string `json:"fields"`
}

type response struct {
	// ID echoes the request's frame ID (0 on the legacy sequential path).
	ID          uint64       `json:"id,omitempty"`
	Objects     []wireObject `json:"objects,omitempty"`
	Error       string       `json:"error,omitempty"`
	NotFound    bool         `json:"notFound,omitempty"`
	Name        string       `json:"name,omitempty"`
	Kind        int          `json:"kind,omitempty"`
	Collections []string     `json:"collections,omitempty"`
	KeyField    string       `json:"keyField,omitempty"`
	// Hits answer a reach op: the one-hop expansion of the request frontier
	// over the peer's A' shard, deduplicated by max probability.
	Hits []RemoteHit `json:"hits,omitempty"`
	// Nodes and Edges report the traversal work of a reach op, so the
	// coordinator can attribute index effort to the profiled query.
	Nodes int `json:"nodes,omitempty"`
	Edges int `json:"edges,omitempty"`
	// Snapshot answers a snapshot op: the peer's A' shard in the binary
	// checkpoint format (base64 over JSON), stamped with its WAL epoch.
	Snapshot []byte `json:"snapshot,omitempty"`
	Epoch    uint64 `json:"epoch,omitempty"`
	// Codec echoes the agreed frame codec on the meta exchange: a v2 server
	// answering a client that offered codec 2 confirms it here, and the
	// client switches its frames to binary from the next request on.
	Codec int `json:"codec,omitempty"`
	// DHits answer a front-coded reach op (request.Frontier): the same
	// payload as Hits, but the binary layout front-codes the key-sorted hit
	// list the same way the request front-codes its frontier.
	DHits []RemoteHit `json:"dhits,omitempty"`
	// Segs splits Hits/DHits into one run per request segment, in request
	// order (a run may be empty). Absent when the request carried no Segs.
	Segs []int `json:"segs,omitempty"`
}

// segmentedLen is the length of the list a generic frame's segment column
// splits: the front-coded list when the frame carries one, else the plain.
func segmentedLen(front, plain int) int {
	if front > 0 {
		return front
	}
	return plain
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

// writeJSONFrame sends one length-prefixed JSON frame — the v1 codec,
// preserved byte for byte so legacy peers interoperate.
func writeJSONFrame(w io.Writer, v any, op string) (int, error) {
	body, err := json.Marshal(v)
	if err != nil {
		return 0, fmt.Errorf("wire: encoding frame: %w", err)
	}
	if len(body) > maxFrame {
		return 0, &FrameTooLargeError{Op: op, Len: len(body)}
	}
	var head [4]byte
	binary.BigEndian.PutUint32(head[:], uint32(len(body)))
	if _, err := w.Write(head[:]); err != nil {
		return 0, err
	}
	if _, err := w.Write(body); err != nil {
		return 0, err
	}
	return len(head) + len(body), nil
}

// writeRequestFrame sends req in the given codec, returning the bytes put on
// the wire (header included) so the explain layer can account for them.
// Binary frames serialize into a pooled buffer and go out in one Write.
func writeRequestFrame(w io.Writer, req *request, codec uint8) (int, error) {
	if codec < codecBinary {
		return writeJSONFrame(w, req, req.Op)
	}
	e := getEncoder()
	defer putEncoder(e)
	// On a v3 connection only delta reach traffic uses the compact frame;
	// every other op stays on the generic v2 layout.
	if codec >= codecDelta && req.Op == opReach && len(req.Frontier) > 0 {
		if err := e.encodeDeltaRequest(req); err != nil {
			return 0, err
		}
	} else if err := e.encodeRequest(req); err != nil {
		return 0, err
	}
	frame, err := e.finish(req.Op)
	if err != nil {
		return 0, err
	}
	n, err := w.Write(frame)
	return n, err
}

// writeResponseFrame sends resp in the given codec; op names the dispatched
// operation in size-violation errors.
func writeResponseFrame(w io.Writer, resp *response, codec uint8, op string) (int, error) {
	if codec < codecBinary {
		return writeJSONFrame(w, resp, op)
	}
	e := getEncoder()
	defer putEncoder(e)
	// A request that arrived as a compact v3 reach frame is answered in
	// kind: the compact response carries exactly the fields a reach answer
	// uses (error, stats, hits).
	if codec >= codecDelta {
		e.encodeDeltaResponse(resp)
	} else {
		e.encodeResponse(resp)
	}
	frame, err := e.finish(op)
	if err != nil {
		return 0, err
	}
	n, err := w.Write(frame)
	return n, err
}

// readFrameInto receives one length-prefixed frame and decodes it through
// decodeJSON/decodeBinary depending on the body's first byte. The body lands
// in a pooled buffer that is recycled before returning, so the decoders must
// copy what they keep (the binary decoders copy once into a string and slice
// it; encoding/json copies inherently).
func readFrameInto(r io.Reader, decodeJSON func([]byte) error, decodeBinary func(string) error) (int, uint8, error) {
	var head [4]byte
	if _, err := io.ReadFull(r, head[:]); err != nil {
		return 0, 0, err
	}
	n := binary.BigEndian.Uint32(head[:])
	if int64(n) > int64(maxFrame) {
		return 0, 0, &FrameTooLargeError{Len: int(n)}
	}
	if n == 0 {
		return 0, 0, fmt.Errorf("wire: empty frame")
	}
	bb := getBody(int(n))
	defer putBody(bb)
	if _, err := io.ReadFull(r, bb.b); err != nil {
		return 0, 0, err
	}
	total := len(head) + int(n)
	switch bb.b[0] {
	case '{':
		if err := decodeJSON(bb.b); err != nil {
			return 0, codecJSON, fmt.Errorf("wire: decoding frame: %w", err)
		}
		return total, codecJSON, nil
	case binMagic:
		if err := decodeBinary(string(bb.b)); err != nil {
			return 0, codecBinary, fmt.Errorf("wire: decoding frame: %w", err)
		}
		return total, codecBinary, nil
	case binMagicDelta, binMagicDeltaSeg:
		if err := decodeBinary(string(bb.b)); err != nil {
			return 0, codecDelta, fmt.Errorf("wire: decoding frame: %w", err)
		}
		return total, codecDelta, nil
	default:
		return 0, 0, fmt.Errorf("wire: unknown frame codec byte 0x%02x", bb.b[0])
	}
}

// readRequestFrame receives one request frame, reporting the codec it
// arrived in so the server can answer in kind.
func readRequestFrame(r io.Reader, req *request) (int, uint8, error) {
	return readFrameInto(r,
		func(b []byte) error {
			*req = request{}
			return json.Unmarshal(b, req)
		},
		func(body string) error {
			if body[0] == binMagic {
				return decodeRequestV2(body, req)
			}
			return decodeDeltaRequest(body, req)
		},
	)
}

// readResponseFrame receives one response frame in either codec.
func readResponseFrame(r io.Reader, resp *response) (int, uint8, error) {
	return readFrameInto(r,
		func(b []byte) error {
			*resp = response{}
			return json.Unmarshal(b, resp)
		},
		func(body string) error {
			if body[0] == binMagic {
				return decodeResponseV2(body, resp)
			}
			return decodeDeltaResponse(body, resp)
		},
	)
}
