package wire

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"math"
	"math/rand"
	"net"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"quepa/internal/connector"
	"quepa/internal/core"
	"quepa/internal/stores/kvstore"
)

// ---------------------------------------------------------------------------
// JSON-equivalence properties: same struct in, equal structs out, both codecs.

// jsonRoundTripReq pushes req through the v1 codec and back.
func jsonRoundTripReq(t *testing.T, req *request) request {
	t.Helper()
	b, err := json.Marshal(req)
	if err != nil {
		t.Fatalf("json encode: %v", err)
	}
	var out request
	if err := json.Unmarshal(b, &out); err != nil {
		t.Fatalf("json decode: %v", err)
	}
	return out
}

func binRoundTripReq(t *testing.T, req *request) request {
	t.Helper()
	e := getEncoder()
	defer putEncoder(e)
	if err := e.encodeRequest(req); err != nil {
		t.Fatalf("binary encode: %v", err)
	}
	frame, err := e.finish(req.Op)
	if err != nil {
		t.Fatal(err)
	}
	var out request
	if err := decodeRequestV2(string(frame[4:]), &out); err != nil {
		t.Fatalf("binary decode: %v", err)
	}
	return out
}

func jsonRoundTripResp(t *testing.T, resp *response) response {
	t.Helper()
	b, err := json.Marshal(resp)
	if err != nil {
		t.Fatalf("json encode: %v", err)
	}
	var out response
	if err := json.Unmarshal(b, &out); err != nil {
		t.Fatalf("json decode: %v", err)
	}
	return out
}

func binRoundTripResp(t *testing.T, resp *response) response {
	t.Helper()
	e := getEncoder()
	defer putEncoder(e)
	e.encodeResponse(resp)
	frame, err := e.finish("test")
	if err != nil {
		t.Fatal(err)
	}
	var out response
	if err := decodeResponseV2(string(frame[4:]), &out); err != nil {
		t.Fatalf("binary decode: %v", err)
	}
	return out
}

// sanitizeFloats replaces non-finite values: the JSON codec cannot carry
// them at all (json.Marshal rejects NaN/Inf), so they are out of scope for
// the equivalence property. testing/quick does not generate them, but the
// guard keeps the property honest if that ever changes.
func sanitizeFloats(ps []float64) {
	for i, p := range ps {
		if math.IsNaN(p) || math.IsInf(p, 0) {
			ps[i] = float64(i)
		}
	}
}

// validSegs turns quick's arbitrary ints into a segment column the binary
// decoders accept — len(raw) non-negative runs summing to total — keeping
// quick's choice of how many segments there are and roughly where they cut.
// The JSON codec carries any ints; what a malformed column does is pinned by
// TestSegmentValidation, not by the equivalence properties.
func validSegs(raw []int, total int) []int {
	if len(raw) == 0 {
		return nil
	}
	segs := make([]int, len(raw))
	left := total
	for i, r := range raw[:len(raw)-1] {
		if r < 0 {
			r = -(r + 1)
		}
		segs[i] = r % (left + 1)
		left -= segs[i]
	}
	segs[len(segs)-1] = left
	return segs
}

// TestQuickRequestEquivalence pins codec v2 to the JSON codec for every op:
// an arbitrary request — segment column included — must round-trip through
// both codecs to the same struct.
func TestQuickRequestEquivalence(t *testing.T) {
	for _, op := range wireOps {
		op := op
		t.Run(op, func(t *testing.T) {
			f := func(req request) bool {
				req.Op = op
				sanitizeFloats(req.Probs)
				req.Segs = validSegs(req.Segs, segmentedLen(len(req.Frontier), len(req.Keys)))
				viaJSON := jsonRoundTripReq(t, &req)
				viaBin := binRoundTripReq(t, &req)
				if !reflect.DeepEqual(viaJSON, viaBin) {
					t.Logf("json: %#v\nbin:  %#v", viaJSON, viaBin)
					return false
				}
				return true
			}
			if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
				t.Error(err)
			}
		})
	}
}

// TestQuickResponseEquivalence is the response-side property, covering the
// object lists, hits, snapshot payloads and the nil/empty field-map split.
func TestQuickResponseEquivalence(t *testing.T) {
	f := func(resp response) bool {
		for i := range resp.Hits {
			if math.IsNaN(resp.Hits[i].Prob) || math.IsInf(resp.Hits[i].Prob, 0) {
				resp.Hits[i].Prob = float64(i)
			}
		}
		for i := range resp.DHits {
			if math.IsNaN(resp.DHits[i].Prob) || math.IsInf(resp.DHits[i].Prob, 0) {
				resp.DHits[i].Prob = float64(i)
			}
		}
		resp.Segs = validSegs(resp.Segs, segmentedLen(len(resp.DHits), len(resp.Hits)))
		viaJSON := jsonRoundTripResp(t, &resp)
		viaBin := binRoundTripResp(t, &resp)
		if !reflect.DeepEqual(viaJSON, viaBin) {
			t.Logf("json: %#v\nbin:  %#v", viaJSON, viaBin)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestNilEmptyFieldMap pins the one place the JSON codec distinguishes nil
// from empty: the "fields" object has no omitempty, so both states must
// survive codec v2 too.
func TestNilEmptyFieldMap(t *testing.T) {
	resp := response{Objects: []wireObject{
		{Database: "d", Collection: "c", Key: "nil-fields", Fields: nil},
		{Database: "d", Collection: "c", Key: "empty-fields", Fields: map[string]string{}},
		{Database: "d", Collection: "c", Key: "one-field", Fields: map[string]string{"v": "1"}},
	}}
	out := binRoundTripResp(t, &resp)
	if out.Objects[0].Fields != nil {
		t.Errorf("nil fields decoded to %#v", out.Objects[0].Fields)
	}
	if out.Objects[1].Fields == nil || len(out.Objects[1].Fields) != 0 {
		t.Errorf("empty fields decoded to %#v", out.Objects[1].Fields)
	}
	if out.Objects[2].Fields["v"] != "1" {
		t.Errorf("fields decoded to %#v", out.Objects[2].Fields)
	}
	if !reflect.DeepEqual(jsonRoundTripResp(t, &resp), out) {
		t.Error("codecs disagree on nil/empty field maps")
	}
}

// TestFrontCodedFrontier pins the shared-prefix elision of the delta-frontier
// fields: a sorted global-key list must round-trip exactly and encode smaller
// than the plain Keys form, and corrupt prefix claims must be rejected.
func TestFrontCodedFrontier(t *testing.T) {
	keys := make([]string, 64)
	for i := range keys {
		keys[i] = "warehouse.transactions.tx-" + strings.Repeat("0", 4) + string(rune('a'+i%26)) + string(rune('a'+i/26))
	}
	front := &request{Op: opReach, Frontier: keys, Probs: make([]float64, len(keys))}
	plain := &request{Op: opReach, Keys: keys, Probs: make([]float64, len(keys))}
	out := binRoundTripReq(t, front)
	if !reflect.DeepEqual(out.Frontier, keys) {
		t.Fatalf("frontier round trip mangled keys: %v", out.Frontier)
	}
	fb, pb := encodeReqBody(t, front), encodeReqBody(t, plain)
	if len(fb) >= len(pb) {
		t.Errorf("front-coded frame (%d bytes) not smaller than plain keys (%d bytes)", len(fb), len(pb))
	}
	if !reflect.DeepEqual(jsonRoundTripReq(t, front), out) {
		t.Error("codecs disagree on the frontier field")
	}

	hits := make([]RemoteHit, len(keys))
	for i, k := range keys {
		hits[i] = RemoteHit{Key: k, Prob: 1 / float64(i+1)}
	}
	resp := &response{DHits: hits}
	rout := binRoundTripResp(t, resp)
	if !reflect.DeepEqual(rout.DHits, hits) {
		t.Fatalf("dhits round trip mangled hits")
	}

	// A prefix length exceeding the previous key is a corrupted frame, not a
	// panic or a bogus decode.
	body := encodeReqBody(t, &request{Op: opReach, Frontier: []string{"ab", "abc"}})
	// The last frontier element encodes as uvarint(2) "c"; flip the prefix
	// length to an impossible 9.
	idx := bytes.LastIndexByte(body, 2)
	if idx < 0 {
		t.Fatal("could not locate prefix byte")
	}
	body[idx] = 9
	var req request
	if err := decodeRequestV2(string(body), &req); !errors.Is(err, errFrontPrefix) && err == nil {
		t.Fatalf("corrupt prefix accepted: %v", err)
	}
}

// TestInternTableOverflow drives more distinct interned strings through one
// frame than the table holds, checking the encoder and decoder stay in
// lockstep past the cap.
func TestInternTableOverflow(t *testing.T) {
	objs := make([]wireObject, 3*internCap)
	for i := range objs {
		name := "db-" + strings.Repeat("x", i%7) + string(rune('a'+i%26))
		objs[i] = wireObject{
			Database:   name,
			Collection: "coll-" + name,
			Key:        "k",
			Fields:     map[string]string{"f" + name: "v"},
		}
	}
	// Repeat the slice so back-references actually occur for early entries.
	objs = append(objs, objs...)
	resp := response{Objects: objs}
	if !reflect.DeepEqual(jsonRoundTripResp(t, &resp), binRoundTripResp(t, &resp)) {
		t.Error("codecs disagree past the intern cap")
	}
}

// ---------------------------------------------------------------------------
// Corruption tables: like the WAL's torn-write tables, but for frames.

func encodeReqBody(t *testing.T, req *request) []byte {
	t.Helper()
	e := getEncoder()
	defer putEncoder(e)
	if err := e.encodeRequest(req); err != nil {
		t.Fatal(err)
	}
	frame, err := e.finish(req.Op)
	if err != nil {
		t.Fatal(err)
	}
	return append([]byte(nil), frame[4:]...)
}

func encodeRespBody(t *testing.T, resp *response) []byte {
	t.Helper()
	e := getEncoder()
	defer putEncoder(e)
	e.encodeResponse(resp)
	frame, err := e.finish("test")
	if err != nil {
		t.Fatal(err)
	}
	return append([]byte(nil), frame[4:]...)
}

func corruptionReq() *request {
	return &request{
		ID: 7, Op: opReach, Collection: "drop", Key: "k1",
		Keys: []string{"a", "bb", "ccc"}, Query: "SCAN drop",
		Database: "discount", Probs: []float64{0.5, 0.25, 1},
		Trace: "00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01",
		Codec: 2,
	}
}

func corruptionResp() *response {
	return &response{
		ID: 7, Objects: []wireObject{
			{Database: "d", Collection: "c", Key: "k1", Fields: map[string]string{"a": "1", "b": "2"}},
			{Database: "d", Collection: "c", Key: "k2", Fields: nil},
		},
		Name: "discount", Kind: 2, Collections: []string{"drop", "promo"},
		KeyField: "id", Hits: []RemoteHit{{Key: "d.c.k1", Prob: 0.5}},
		Nodes: 9, Edges: 4, Snapshot: []byte{1, 2, 3}, Epoch: 41, Codec: 2,
	}
}

// TestCorruptionTruncation: every strict prefix of a valid frame must be
// rejected — all fields are always encoded, so any cut lands mid-field or
// trips the trailing-bytes check.
func TestCorruptionTruncation(t *testing.T) {
	reqBody := encodeReqBody(t, corruptionReq())
	respBody := encodeRespBody(t, corruptionResp())
	for i := 0; i < len(reqBody); i++ {
		var out request
		if err := decodeRequestV2(string(reqBody[:i]), &out); err == nil {
			t.Fatalf("request truncated at %d/%d decoded without error", i, len(reqBody))
		}
	}
	for i := 0; i < len(respBody); i++ {
		var out response
		if err := decodeResponseV2(string(respBody[:i]), &out); err == nil {
			t.Fatalf("response truncated at %d/%d decoded without error", i, len(respBody))
		}
	}
}

// TestCorruptionBitFlips: flipping any single bit of a valid frame must never
// panic or over-allocate. (Frames carry no checksum — TCP does — so a flip
// may legally decode to different data; the property is memory safety.)
func TestCorruptionBitFlips(t *testing.T) {
	reqBody := encodeReqBody(t, corruptionReq())
	respBody := encodeRespBody(t, corruptionResp())
	for off := 0; off < len(reqBody); off++ {
		for bit := 0; bit < 8; bit++ {
			mut := append([]byte(nil), reqBody...)
			mut[off] ^= 1 << bit
			var out request
			decodeRequestV2(string(mut), &out) //nolint:errcheck // must not panic; error is legal
		}
	}
	for off := 0; off < len(respBody); off++ {
		for bit := 0; bit < 8; bit++ {
			mut := append([]byte(nil), respBody...)
			mut[off] ^= 1 << bit
			var out response
			decodeResponseV2(string(mut), &out) //nolint:errcheck // must not panic; error is legal
		}
	}
}

// TestCorruptionTrailingBytes: a frame with appended garbage must be
// rejected, not silently under-read.
func TestCorruptionTrailingBytes(t *testing.T) {
	reqBody := append(encodeReqBody(t, corruptionReq()), 0x00)
	var req request
	if err := decodeRequestV2(string(reqBody), &req); !errors.Is(err, errTrailingBytes) {
		t.Errorf("request with trailing byte = %v, want errTrailingBytes", err)
	}
	respBody := append(encodeRespBody(t, corruptionResp()), 0xFF)
	var resp response
	if err := decodeResponseV2(string(respBody), &resp); !errors.Is(err, errTrailingBytes) {
		t.Errorf("response with trailing byte = %v, want errTrailingBytes", err)
	}
	// The segment column is the last thing in a frame that announces one;
	// what follows it is garbage like anywhere else.
	segReq := corruptionReq()
	segReq.Segs = []int{1, 0, 2}
	if err := decodeRequestV2(string(append(encodeReqBody(t, segReq), 0x00)), &req); !errors.Is(err, errTrailingBytes) {
		t.Errorf("segmented request with trailing byte = %v, want errTrailingBytes", err)
	}
	segResp := corruptionResp()
	segResp.Segs = []int{0, 1}
	if err := decodeResponseV2(string(append(encodeRespBody(t, segResp), 0xFF)), &resp); !errors.Is(err, errTrailingBytes) {
		t.Errorf("segmented response with trailing byte = %v, want errTrailingBytes", err)
	}
}

// TestSegmentedFramesLeaveOthersAlone pins the compatibility half of the
// segment column: in every codec a frame without segments encodes exactly as
// it did before the column existed (the golden bytes below were produced by
// the parent commit's encoders), and adding segments only appends.
func TestSegmentedFramesLeaveOthersAlone(t *testing.T) {
	req := &request{Op: opReach, ID: 2, Frontier: []string{"d.c.k1", "d.c.k2"}, Probs: []float64{1, 0.5}}
	resp := &response{ID: 2, Nodes: 3, Edges: 4, DHits: []RemoteHit{{Key: "d.c.k9", Prob: 0.25}}}
	golden := []struct {
		name string
		got  []byte
		want string
	}{
		{"json request", mustJSON(t, req), `{"id":2,"op":"reach","probs":[1,0.5],"fr":["d.c.k1","d.c.k2"]}`},
		{"json response", mustJSON(t, resp), `{"id":2,"nodes":3,"edges":4,"dhits":[{"k":"d.c.k9","p":0.25}]}`},
		{"v2 request", encodeReqBody(t, req),
			"\x02\x06\x02\x00\x00\x00\x00\x00\x01\x02\x00\x00\x00\x00\x00\x00\xf0?\x00\x00\x00\x00\x00\x00\xe0?\x00\x00\x02\x00\x06d.c.k1\x05\x012"},
		{"v2 response", encodeRespBody(t, resp),
			"\x02\x02\x00\x00\x00\x00\x00\x00\x00\x00\x06\x08\x00\x00\x00\x01\x00\x06d.c.k9\x00\x00\x00\x00\x00\x00\xd0?"},
		{"v3 request", encodeDeltaReqBody(t, req),
			"\x03\x02\x04\x00\x06d.c.k1\x05\x012\x00\x00\x00\x00\x00\x00\xf0?\x00\x00\x00\x00\x00\x00\xe0?"},
		{"v3 response", encodeDeltaRespBody(t, resp),
			"\x03\x02\x02\x03\x04\x00\x06d.c.k9\x00\x00\x00\x00\x00\x00\xd0?"},
	}
	for _, g := range golden {
		if string(g.got) != g.want {
			t.Errorf("%s without segments changed:\n got %q\nwant %q", g.name, g.got, g.want)
		}
	}
	req.Segs, resp.Segs = []int{1, 1}, []int{0, 1}
	segmented := []struct {
		name        string
		plain, segs []byte
	}{
		{"v2 request", []byte(golden[2].want), encodeReqBody(t, req)},
		{"v2 response", []byte(golden[3].want), encodeRespBody(t, resp)},
		{"v3 request", []byte(golden[4].want), encodeDeltaReqBody(t, req)},
		{"v3 response", []byte(golden[5].want), encodeDeltaRespBody(t, resp)},
	}
	for _, s := range segmented {
		if len(s.segs) != len(s.plain)+3 {
			t.Errorf("%s: segment column of 2 runs costs %d bytes, want 3", s.name, len(s.segs)-len(s.plain))
		}
	}
}

func mustJSON(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestCorruptionRandomBodies throws random bytes at both decoders — the
// in-test complement of FuzzDecodeFrame.
func TestCorruptionRandomBodies(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 5000; i++ {
		body := make([]byte, rng.Intn(256))
		rng.Read(body)
		if len(body) > 0 && i%2 == 0 {
			body[0] = binMagic // steer half the cases past the magic check
		}
		var req request
		decodeRequestV2(string(body), &req) //nolint:errcheck // must not panic
		var resp response
		decodeResponseV2(string(body), &resp) //nolint:errcheck // must not panic
	}
}

// ---------------------------------------------------------------------------
// Allocation gates: the kill-switch numbers the tentpole promises.

// getbatchFixture builds the request and response of a representative
// getbatch exchange: 32 keys, 32 objects sharing one database/collection.
func getbatchFixture() (*request, *response) {
	keys := make([]string, 32)
	objs := make([]wireObject, 32)
	for i := range keys {
		keys[i] = "key-" + string(rune('a'+i%26)) + string(rune('0'+i%10))
		objs[i] = wireObject{
			Database:   "discount",
			Collection: "drop",
			Key:        keys[i],
			Fields:     map[string]string{"value": "40%", "tier": "gold"},
		}
	}
	req := &request{ID: 3, Op: opGetBatch, Collection: "drop", Keys: keys}
	resp := &response{ID: 3, Objects: objs}
	return req, resp
}

// TestAllocGateBinaryEncode is the server-side promise: steady-state binary
// response encoding does zero codec allocations (pooled buffer, one Write).
func TestAllocGateBinaryEncode(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; alloc gate is plain-build only")
	}
	_, resp := getbatchFixture()
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := writeResponseFrame(io.Discard, resp, codecBinary, opGetBatch); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 0 {
		t.Errorf("binary response encode = %.1f allocs/op, want 0", allocs)
	}
}

// TestAllocGateBinaryRequestEncode covers the client's write path the same
// way: the frame build itself must not allocate.
func TestAllocGateBinaryRequestEncode(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; alloc gate is plain-build only")
	}
	req, _ := getbatchFixture()
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := writeRequestFrame(io.Discard, req, codecBinary); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 0 {
		t.Errorf("binary request encode = %.1f allocs/op, want 0", allocs)
	}
}

// TestAllocGateGetBatchServerPath measures the full per-frame server cycle —
// read+decode the request, encode+write the response — in both codecs, and
// enforces the tentpole's ≥50% cut for codec v2.
func TestAllocGateGetBatchServerPath(t *testing.T) {
	req, resp := getbatchFixture()

	cycle := func(codec uint8) float64 {
		var frame bytes.Buffer
		if _, err := writeRequestFrame(&frame, req, codec); err != nil {
			t.Fatal(err)
		}
		raw := frame.Bytes()
		rd := bytes.NewReader(raw)
		return testing.AllocsPerRun(200, func() {
			rd.Reset(raw)
			var in request
			if _, _, err := readRequestFrame(rd, &in); err != nil {
				t.Fatal(err)
			}
			if _, err := writeResponseFrame(io.Discard, resp, codec, opGetBatch); err != nil {
				t.Fatal(err)
			}
		})
	}

	jsonAllocs := cycle(codecJSON)
	binAllocs := cycle(codecBinary)
	t.Logf("getbatch server path: json %.0f allocs/op, binary %.0f allocs/op", jsonAllocs, binAllocs)
	if binAllocs > jsonAllocs/2 {
		t.Errorf("binary getbatch server path = %.0f allocs/op, want <= half of JSON's %.0f", binAllocs, jsonAllocs)
	}
}

// ---------------------------------------------------------------------------
// Negotiation and the typed size violation.

func servedKVForCodec(t *testing.T) *Server {
	t.Helper()
	db := kvstore.New("discount")
	db.Set("drop", "k1", "40%")
	srv, err := Serve(connector.NewKeyValue(db), "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv
}

func TestCodecNegotiation(t *testing.T) {
	srv := servedKVForCodec(t)

	t.Run("auto-upgrades", func(t *testing.T) {
		cli, err := Dial(srv.Addr())
		if err != nil {
			t.Fatal(err)
		}
		defer cli.Close()
		if cli.Codec() != CodecBinary {
			t.Errorf("negotiated codec = %q, want binary", cli.Codec())
		}
		if o, err := cli.Get(context.Background(), "drop", "k1"); err != nil || o.GK.Key != "k1" {
			t.Errorf("binary Get = %v, %v", o, err)
		}
	})

	t.Run("json-pins", func(t *testing.T) {
		cli, err := DialConfig(srv.Addr(), ClientConfig{Codec: CodecJSON})
		if err != nil {
			t.Fatal(err)
		}
		defer cli.Close()
		if cli.Codec() != CodecJSON {
			t.Errorf("pinned codec = %q, want json", cli.Codec())
		}
		if _, err := cli.Get(context.Background(), "drop", "k1"); err != nil {
			t.Error(err)
		}
	})

	t.Run("unknown-codec-fails-dial", func(t *testing.T) {
		if _, err := DialConfig(srv.Addr(), ClientConfig{Codec: "protobuf"}); err == nil {
			t.Error("unknown codec string should fail Dial")
		}
	})
}

// TestCodecFallbackToJSONOnlyServer emulates a v1 peer with LimitCodec: the
// auto client must stay on JSON and keep working.
func TestCodecFallbackToJSONOnlyServer(t *testing.T) {
	db := kvstore.New("legacy")
	db.Set("drop", "k1", "40%")
	ln, err := Serve(connector.NewKeyValue(db), "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	ln.LimitCodec(codecJSON)
	cli, err := Dial(ln.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	if cli.Codec() != CodecJSON {
		t.Errorf("codec against JSON-only server = %q, want json", cli.Codec())
	}
	if o, err := cli.Get(context.Background(), "drop", "k1"); err != nil || o.Fields["value"] != "40%" {
		t.Errorf("Get through JSON fallback = %v, %v", o, err)
	}
}

// TestFrameTooLargeNotRetried pins the satellite: a size violation is
// final — typed, attributed to its op, never retried, and it must not poison
// the connection for later requests.
func TestFrameTooLargeNotRetried(t *testing.T) {
	srv := servedKVForCodec(t)
	cli, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()

	old := maxFrame
	maxFrame = 256
	defer func() { maxFrame = old }()

	big := strings.Repeat("x", 1024)
	before := cli.Retries()
	_, err = cli.GetBatch(context.Background(), "drop", []string{big, big})
	if !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("oversized getbatch = %v, want ErrFrameTooLarge", err)
	}
	var fe *FrameTooLargeError
	if !errors.As(err, &fe) || fe.Op != opGetBatch || fe.Len <= maxFrame {
		t.Errorf("typed error = %#v, want op getbatch and Len > %d", fe, maxFrame)
	}
	if got := cli.Retries() - before; got != 0 {
		t.Errorf("size violation retried %d times, want 0", got)
	}
	// The connection survives: a normal request on the same client works.
	if _, err := cli.Get(context.Background(), "drop", "k1"); err != nil {
		t.Errorf("connection poisoned by size violation: %v", err)
	}
}

// TestServerOversizedResponse caps maxFrame below a response's size: the
// server must answer with a small error frame instead of dying, and the
// client must surface it as a non-retryable remote error.
func TestServerOversizedResponse(t *testing.T) {
	db := kvstore.New("discount")
	big := strings.Repeat("y", 2048)
	db.Set("drop", "k1", big)
	srv, err := Serve(connector.NewKeyValue(db), "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cli, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()

	old := maxFrame
	maxFrame = 512
	defer func() { maxFrame = old }()

	before := cli.Retries()
	_, err = cli.Get(context.Background(), "drop", "k1")
	if err == nil {
		t.Fatal("oversized response should fail")
	}
	var re *remoteError
	if !errors.As(err, &re) || !strings.Contains(err.Error(), "exceeds") {
		t.Errorf("oversized response error = %v, want remote size violation", err)
	}
	if got := cli.Retries() - before; got != 0 {
		t.Errorf("oversized response retried %d times, want 0", got)
	}
}

// TestWireByteCounters checks the server's {dir} byte counters and the
// per-op client frame counters move when traffic flows.
func TestWireByteCounters(t *testing.T) {
	srv := servedKVForCodec(t)
	inBefore, outBefore := serverBytesIn.Value(), serverBytesOut.Value()
	framesBefore := clientFrames[opGet].Value()
	metaBefore := clientFrames[opMeta].Value()

	cli, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	if _, err := cli.Get(context.Background(), "drop", "k1"); err != nil {
		t.Fatal(err)
	}

	if in := serverBytesIn.Value() - inBefore; in <= 8 {
		t.Errorf("server bytes in moved by %d, want > 8", in)
	}
	if out := serverBytesOut.Value() - outBefore; out <= 8 {
		t.Errorf("server bytes out moved by %d, want > 8", out)
	}
	if d := clientFrames[opGet].Value() - framesBefore; d != 1 {
		t.Errorf("get frames counter moved by %d, want 1", d)
	}
	if d := clientFrames[opMeta].Value() - metaBefore; d != 1 {
		t.Errorf("meta frames counter moved by %d, want 1", d)
	}
}

// BenchmarkServerGetBatchCodec is the microbenchmark behind the README's
// allocs/op table: the full decode-request/encode-response cycle per codec.
func BenchmarkServerGetBatchCodec(b *testing.B) {
	req, resp := getbatchFixture()
	for _, tc := range []struct {
		name  string
		codec uint8
	}{{"json", codecJSON}, {"binary", codecBinary}} {
		b.Run(tc.name, func(b *testing.B) {
			var frame bytes.Buffer
			if _, err := writeRequestFrame(&frame, req, tc.codec); err != nil {
				b.Fatal(err)
			}
			raw := frame.Bytes()
			rd := bytes.NewReader(raw)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rd.Reset(raw)
				var in request
				if _, _, err := readRequestFrame(rd, &in); err != nil {
					b.Fatal(err)
				}
				if _, err := writeResponseFrame(io.Discard, resp, tc.codec, opGetBatch); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// ---------------------------------------------------------------------------
// Codec v3: compact reach frames.

func encodeDeltaReqBody(t *testing.T, req *request) []byte {
	t.Helper()
	e := getEncoder()
	defer putEncoder(e)
	if err := e.encodeDeltaRequest(req); err != nil {
		t.Fatal(err)
	}
	frame, err := e.finish(req.Op)
	if err != nil {
		t.Fatal(err)
	}
	return append([]byte(nil), frame[4:]...)
}

func encodeDeltaRespBody(t *testing.T, resp *response) []byte {
	t.Helper()
	e := getEncoder()
	defer putEncoder(e)
	e.encodeDeltaResponse(resp)
	frame, err := e.finish(opReach)
	if err != nil {
		t.Fatal(err)
	}
	return append([]byte(nil), frame[4:]...)
}

// TestCompactReachRoundTrip pins the codec-v3 compact frames: a reach request
// (frontier with parallel probs, traced and untraced) and a reach response
// (hits, stats, clean and errored) must round-trip exactly, and the compact
// form must encode strictly smaller than the generic v2 layout of the same
// exchange.
func TestCompactReachRoundTrip(t *testing.T) {
	keys := []string{
		"catalogue.albums.d1", "catalogue.albums.d12", "catalogue.albums.d2",
		"similar-items.items.n4", "transactions.inventory.a7",
	}
	probs := []float64{1, 0.81, 0.72, 0.5, 0.25}
	for _, trace := range []string{"", "00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01"} {
		req := &request{Op: opReach, ID: 42, Trace: trace, Frontier: keys, Probs: probs}
		body := encodeDeltaReqBody(t, req)
		var out request
		if err := decodeDeltaRequest(string(body), &out); err != nil {
			t.Fatalf("trace %q: decode: %v", trace, err)
		}
		want := request{Op: opReach, ID: 42, Trace: trace, Frontier: keys, Probs: probs}
		if !reflect.DeepEqual(out, want) {
			t.Fatalf("trace %q: round trip = %#v, want %#v", trace, out, want)
		}
		generic := encodeReqBody(t, req)
		if len(body) >= len(generic) {
			t.Errorf("trace %q: compact request (%d bytes) not smaller than generic (%d bytes)", trace, len(body), len(generic))
		}
	}

	hits := []RemoteHit{
		{Key: "catalogue.albums.d3", Prob: 0.9},
		{Key: "catalogue.albums.d31", Prob: 0.45},
		{Key: "transactions.sales.s9", Prob: 0.4},
	}
	for _, errMsg := range []string{"", "reach: shard detached"} {
		resp := &response{ID: 42, Error: errMsg, Nodes: 70, Edges: 128, DHits: hits}
		body := encodeDeltaRespBody(t, resp)
		var out response
		if err := decodeDeltaResponse(string(body), &out); err != nil {
			t.Fatalf("error %q: decode: %v", errMsg, err)
		}
		want := response{ID: 42, Error: errMsg, Nodes: 70, Edges: 128, DHits: hits}
		if !reflect.DeepEqual(out, want) {
			t.Fatalf("error %q: round trip = %#v, want %#v", errMsg, out, want)
		}
		generic := encodeRespBody(t, resp)
		if len(body) >= len(generic) {
			t.Errorf("error %q: compact response (%d bytes) not smaller than generic (%d bytes)", errMsg, len(body), len(generic))
		}
	}

	// An empty frontier and an empty hit list (degenerate but legal).
	var out request
	if err := decodeDeltaRequest(string(encodeDeltaReqBody(t, &request{Op: opReach, ID: 1})), &out); err != nil {
		t.Fatalf("empty frontier: %v", err)
	}
	if out.Frontier != nil || out.Probs != nil {
		t.Errorf("empty frontier decoded to %#v", out)
	}
	var rout response
	if err := decodeDeltaResponse(string(encodeDeltaRespBody(t, &response{ID: 1})), &rout); err != nil {
		t.Fatalf("empty response: %v", err)
	}
	if rout.DHits != nil {
		t.Errorf("empty response decoded to %#v", rout)
	}
}

// TestQuickCompactReachEquivalence is the quick-check property for the v3
// frames: any reach-shaped request (sorted or not, arbitrary probs) must
// survive the compact round trip bit for bit.
func TestQuickCompactReachEquivalence(t *testing.T) {
	f := func(keys []string, seed int64, traced bool) bool {
		rng := rand.New(rand.NewSource(seed))
		probs := make([]float64, len(keys))
		for i := range probs {
			probs[i] = rng.Float64()
		}
		req := request{Op: opReach, ID: rng.Uint64(), Frontier: keys, Probs: probs}
		if len(keys) == 0 {
			req.Frontier, req.Probs = nil, nil
		}
		if traced {
			req.Trace = "00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01"
		}
		body := encodeDeltaReqBody(t, &req)
		var out request
		if err := decodeDeltaRequest(string(body), &out); err != nil {
			t.Logf("decode: %v", err)
			return false
		}
		return reflect.DeepEqual(out, req)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestCompactReachCorruption runs the truncation and bit-flip tables over the
// v3 frames, unsegmented and segmented: every strict prefix rejected, every
// single-bit flip memory-safe, trailing garbage rejected, and a segment
// column that does not add up to its list refused.
func TestCompactReachCorruption(t *testing.T) {
	req := &request{
		Op: opReach, ID: 9,
		Trace:    "00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01",
		Frontier: []string{"catalogue.albums.d1", "catalogue.albums.d2"},
		Probs:    []float64{1, 0.5},
	}
	resp := &response{ID: 9, Nodes: 70, Edges: 128, DHits: []RemoteHit{
		{Key: "catalogue.albums.d3", Prob: 0.9},
		{Key: "catalogue.albums.d31", Prob: 0.45},
	}}
	for _, segs := range [][]int{nil, {1, 1}} {
		req.Segs, resp.Segs = segs, segs
		reqBody := encodeDeltaReqBody(t, req)
		respBody := encodeDeltaRespBody(t, resp)
		for i := 1; i < len(reqBody); i++ {
			var out request
			if err := decodeDeltaRequest(string(reqBody[:i]), &out); err == nil {
				t.Fatalf("segs %v: compact request truncated at %d/%d decoded without error", segs, i, len(reqBody))
			}
		}
		for i := 1; i < len(respBody); i++ {
			var out response
			if err := decodeDeltaResponse(string(respBody[:i]), &out); err == nil {
				t.Fatalf("segs %v: compact response truncated at %d/%d decoded without error", segs, i, len(respBody))
			}
		}
		for off := 0; off < len(reqBody); off++ {
			for bit := 0; bit < 8; bit++ {
				mut := append([]byte(nil), reqBody...)
				mut[off] ^= 1 << bit
				var out request
				decodeDeltaRequest(string(mut), &out) //nolint:errcheck // must not panic; error is legal
			}
		}
		for off := 0; off < len(respBody); off++ {
			for bit := 0; bit < 8; bit++ {
				mut := append([]byte(nil), respBody...)
				mut[off] ^= 1 << bit
				var out response
				decodeDeltaResponse(string(mut), &out) //nolint:errcheck // must not panic; error is legal
			}
		}
		var out request
		if err := decodeDeltaRequest(string(append(reqBody, 0x00)), &out); !errors.Is(err, errTrailingBytes) {
			t.Errorf("segs %v: compact request with trailing byte = %v, want errTrailingBytes", segs, err)
		}
		var rout response
		if err := decodeDeltaResponse(string(append(respBody, 0xFF)), &rout); !errors.Is(err, errTrailingBytes) {
			t.Errorf("segs %v: compact response with trailing byte = %v, want errTrailingBytes", segs, err)
		}
	}

	// The column is the frame's last three bytes: count 2, runs 1 and 1.
	reqBody := encodeDeltaReqBody(t, req)
	respBody := encodeDeltaRespBody(t, resp)
	for _, tail := range [][]byte{
		{2, 1, 0},          // sums short of the list
		{2, 2, 1},          // sums past it
		{2, 3, 0},          // a run longer than the whole list
		{0},                // announced, but no runs
		{200, 1, 1, 1},     // claims more runs than bytes remain
		{1, 0xFF, 0xFF, 3}, // a run far beyond any frame
	} {
		var out request
		mut := append(append([]byte(nil), reqBody[:len(reqBody)-3]...), tail...)
		if err := decodeDeltaRequest(string(mut), &out); err == nil {
			t.Errorf("compact request with segment column %v decoded to %v", tail, out.Segs)
		}
		var rout response
		mut = append(append([]byte(nil), respBody[:len(respBody)-3]...), tail...)
		if err := decodeDeltaResponse(string(mut), &rout); err == nil {
			t.Errorf("compact response with segment column %v decoded to %v", tail, rout.Segs)
		}
	}
}

// reachEcho wraps a plain store with a deterministic FrontierReacher so the
// codec tests can drive reach exchanges without a cluster: every key expands
// to key+".x" at half its probability.
type reachEcho struct {
	core.Store
}

// One hit per key means the hits split exactly where the frontier did.
func (reachEcho) ExpandFrontier(ctx context.Context, keys []string, probs []float64, segs []int) ([]RemoteHit, []int, ReachInfo, error) {
	hits := make([]RemoteHit, len(keys))
	for i, k := range keys {
		hits[i] = RemoteHit{Key: k + ".x", Prob: probs[i] / 2}
	}
	return hits, segs, ReachInfo{Nodes: len(keys), Edges: 2 * len(keys)}, nil
}

func servedReachEcho(t *testing.T) *Server {
	t.Helper()
	db := kvstore.New("discount")
	db.Set("drop", "k1", "40%")
	srv, err := Serve(reachEcho{Store: connector.NewKeyValue(db)}, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv
}

// TestCodecV2PeerReach emulates version skew against a binary peer that
// predates the compact reach frames: LimitCodec(2) negotiates the v2 layout,
// so the client must keep its reach traffic on the plain Keys/Hits exchange
// instead of shipping a Frontier field the old decoder would reject. The
// bytes on the wire are checked against the generic encoding of the exact
// request, which proves no compact frame flew.
func TestCodecV2PeerReach(t *testing.T) {
	srv := servedReachEcho(t)
	srv.LimitCodec(codecBinary)
	cli, err := DialConfig(srv.Addr(), ClientConfig{Codec: CodecBinary})
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	if cli.Codec() != CodecBinary {
		t.Fatalf("negotiated codec = %q, want binary", cli.Codec())
	}
	if got := cli.codec.Load(); got != codecBinary {
		t.Fatalf("negotiated codec version = %d, want %d", got, codecBinary)
	}
	hits, _, _, err := cli.ExpandFrontier(context.Background(), []string{"d.c.k1"}, []float64{1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(hits) != 1 || hits[0].Key != "d.c.k1.x" || hits[0].Prob != 0.5 {
		t.Fatalf("v2 peer reach = %v", hits)
	}
	// ID 2: the meta exchange took ID 1 on this connection.
	want := encodeReqBody(t, &request{Op: opReach, ID: 2, Keys: []string{"d.c.k1"}, Probs: []float64{1}})
	if sent, _ := cli.ReachBytes(); sent != uint64(4+len(want)) {
		t.Errorf("v2 peer reach sent %d bytes, want the generic frame's %d", sent, 4+len(want))
	}
}

// TestCodecV3Negotiation pins the happy path: against a default server the
// client lands on codec v3 and reach traffic flows through the compact
// frames — proven by the bytes on the wire matching the compact encoding of
// the exact request.
func TestCodecV3Negotiation(t *testing.T) {
	srv := servedReachEcho(t)
	cli, err := DialConfig(srv.Addr(), ClientConfig{Codec: CodecBinary})
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	if got := cli.codec.Load(); got != codecDelta {
		t.Fatalf("negotiated codec version = %d, want %d", got, codecDelta)
	}
	hits, _, info, err := cli.ExpandFrontier(context.Background(), []string{"d.c.k1"}, []float64{1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(hits) != 1 || hits[0].Key != "d.c.k1.x" || info.Edges != 2 {
		t.Fatalf("compact reach exchange returned hits=%v info=%+v", hits, info)
	}
	want := encodeDeltaReqBody(t, &request{Op: opReach, ID: 2, Frontier: []string{"d.c.k1"}, Probs: []float64{1}})
	if sent, _ := cli.ReachBytes(); sent != uint64(4+len(want)) {
		t.Errorf("v3 reach sent %d bytes, want the compact frame's %d", sent, 4+len(want))
	}
}

// TestSegmentedReachEveryCodec drives one segmented reach exchange through a
// real server per negotiated codec — JSON v1, generic v2, compact v3 — and
// checks the column arrives, is honoured and comes back.
func TestSegmentedReachEveryCodec(t *testing.T) {
	keys := []string{"d.c.k1", "d.c.k2", "d.c.k1"}
	probs := []float64{1, 0.5, 0.25}
	for _, limit := range []uint8{codecJSON, codecBinary, codecDelta} {
		srv := servedReachEcho(t)
		srv.LimitCodec(limit)
		cli, err := DialConfig(srv.Addr(), ClientConfig{})
		if err != nil {
			t.Fatal(err)
		}
		if got := uint8(cli.codec.Load()); got != limit {
			t.Fatalf("negotiated codec %d, want %d", got, limit)
		}
		hits, hitSegs, _, err := cli.ExpandFrontier(context.Background(), keys, probs, []int{2, 0, 1})
		cli.Close()
		if err != nil {
			t.Fatalf("codec %d: %v", limit, err)
		}
		if !reflect.DeepEqual(hitSegs, []int{2, 0, 1}) || len(hits) != 3 || hits[2] != (RemoteHit{Key: "d.c.k1.x", Prob: 0.125}) {
			t.Errorf("codec %d: hits %v segs %v", limit, hits, hitSegs)
		}
	}
}

// shortSegs answers every reach with one run fewer than it was asked for.
type shortSegs struct{ reachEcho }

func (s shortSegs) ExpandFrontier(ctx context.Context, keys []string, probs []float64, segs []int) ([]RemoteHit, []int, ReachInfo, error) {
	hits, _, info, err := s.reachEcho.ExpandFrontier(ctx, keys, probs, segs)
	return hits, []int{len(hits)}, info, err
}

// TestSegmentValidation: a malformed segmentation — from a JSON peer, which
// no decoder vets, or from the store behind the server — is answered with an
// error frame, never expanded in part and never a panic.
func TestSegmentValidation(t *testing.T) {
	srv := servedReachEcho(t)
	ctx := context.Background()
	for name, req := range map[string]request{
		"runs sum short":  {Op: opReach, Keys: []string{"a", "b", "c"}, Probs: []float64{1, 1, 1}, Segs: []int{1, 1}},
		"runs sum past":   {Op: opReach, Frontier: []string{"a", "b"}, Probs: []float64{1, 1}, Segs: []int{2, 1}},
		"negative run":    {Op: opReach, Keys: []string{"a", "b"}, Probs: []float64{1, 1}, Segs: []int{3, -1}},
		"probs too short": {Op: opReach, Keys: []string{"a", "b"}, Probs: []float64{1}},
		"probs too long":  {Op: opReach, Frontier: []string{"a"}, Probs: []float64{1, 1}, Segs: []int{1}},
	} {
		if resp := srv.dispatch(ctx, req); resp.Error == "" || len(resp.Hits)+len(resp.DHits) != 0 {
			t.Errorf("%s: dispatched to %+v, want an error frame", name, resp)
		}
	}
	if resp := srv.dispatch(ctx, request{Op: opReach, Keys: []string{"a", "b"}, Probs: []float64{1, 1}, Segs: []int{1, 1}}); resp.Error != "" {
		t.Errorf("well-formed segmented reach refused: %s", resp.Error)
	}

	// A store that loses a segment must not reach the client as an answer.
	db := kvstore.New("discount")
	bad, err := Serve(shortSegs{reachEcho{Store: connector.NewKeyValue(db)}}, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer bad.Close()
	cli, err := DialConfig(bad.Addr(), ClientConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	if _, _, _, err := cli.ExpandFrontier(ctx, []string{"a", "b"}, []float64{1, 1}, []int{1, 1}); err == nil {
		t.Error("a response with one segment for a two-segment request was accepted")
	}
}

// TestClientRejectsUnsegmentedAnswer: a peer that predates the segment column
// ignores it and answers one merged hit list. The client must fail the leg —
// which degrades the traversal — rather than hand one origin another's hits.
func TestClientRejectsUnsegmentedAnswer(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		for {
			var req request
			if _, _, err := readRequestFrame(conn, &req); err != nil {
				return
			}
			resp := response{ID: req.ID, Name: "old-peer"}
			if req.Op == opReach {
				resp.Hits = []RemoteHit{{Key: "d.c.x", Prob: 0.5}, {Key: "d.c.y", Prob: 0.5}}
			}
			if _, err := writeResponseFrame(conn, &resp, codecJSON, req.Op); err != nil {
				return
			}
		}
	}()
	cli, err := DialConfig(ln.Addr().String(), ClientConfig{PoolSize: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	ctx := context.Background()
	if _, _, _, err := cli.ExpandFrontier(ctx, []string{"d.c.a", "d.c.b"}, []float64{1, 1}, []int{1, 1}); err == nil {
		t.Error("unsegmented answer to a segmented request was accepted")
	}
	if hits, _, _, err := cli.ExpandFrontier(ctx, []string{"d.c.a"}, []float64{1}, nil); err != nil || len(hits) != 2 {
		t.Errorf("unsegmented exchange with an old peer = %v, %v; want it to keep working", hits, err)
	}
}
