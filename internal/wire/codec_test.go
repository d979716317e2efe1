package wire

import (
	"bytes"
	"context"
	"encoding/binary"
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
	"time"

	"quepa/internal/connector"
	"quepa/internal/core"
	"quepa/internal/resilience"
	"quepa/internal/stores/kvstore"
)

// ---------------------------------------------------------------------------
// JSON-equivalence properties: encoding/json over the same structs is the
// reference the wire format is held to — same struct in, equal structs out.

// jsonRoundTripReq pushes req through the reference encoding and back.
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

func wireRoundTripReq(t *testing.T, req *request) request {
	t.Helper()
	var out request
	if err := decodeRequest(string(encodeReqBody(t, req)), &out); err != nil {
		t.Fatalf("decode: %v", err)
	}
	return out
}

// jsonObject is a wireObject in the JSON reference: its fields as a map, nil
// for no field map.
type jsonObject struct {
	Database   string            `json:"db"`
	Collection string            `json:"coll"`
	Key        string            `json:"key"`
	Fields     map[string]string `json:"fields"`
}

// jsonResponse shadows a response's objects with their map form; every other
// field goes through the embedded response's own tags.
type jsonResponse struct {
	response
	Objects []jsonObject `json:"objects,omitempty"`
}

func toJSONObjects(objs []wireObject) []jsonObject {
	if objs == nil {
		return nil
	}
	out := make([]jsonObject, len(objs))
	for i, o := range objs {
		out[i] = jsonObject{Database: o.Database, Collection: o.Collection, Key: o.Key}
		if !o.Fields.IsZero() {
			out[i].Fields = map[string]string{}
			o.Fields.All(func(name, value string) bool {
				out[i].Fields[name] = value
				return true
			})
		}
	}
	return out
}

func fromJSONObjects(objs []jsonObject) []wireObject {
	if objs == nil {
		return nil
	}
	out := make([]wireObject, len(objs))
	for i, o := range objs {
		out[i] = wireObject{Database: o.Database, Collection: o.Collection, Key: o.Key, Fields: fieldsOf(o.Fields)}
	}
	return out
}

// fieldsOf sorts a field map into a view; nil gives the zero Fields.
func fieldsOf(m map[string]string) core.Fields {
	if m == nil {
		return core.Fields{}
	}
	return core.NewObject(core.GlobalKey{}, m).Fields
}

func jsonRoundTripResp(t *testing.T, resp *response) response {
	t.Helper()
	b, err := json.Marshal(jsonResponse{response: *resp, Objects: toJSONObjects(resp.Objects)})
	if err != nil {
		t.Fatalf("json encode: %v", err)
	}
	var in jsonResponse
	if err := json.Unmarshal(b, &in); err != nil {
		t.Fatalf("json decode: %v", err)
	}
	out := in.response
	out.Objects = fromJSONObjects(in.Objects)
	return out
}

// quickResponse is a response testing/quick can generate: quick draws every
// field but the objects itself, and the objects in their JSON form, since a
// core.Fields keeps its slices unexported.
type quickResponse struct{ response }

func (quickResponse) Generate(rng *rand.Rand, _ int) reflect.Value {
	var r quickResponse
	v := reflect.ValueOf(&r.response).Elem()
	for i := 0; i < v.NumField(); i++ {
		if v.Type().Field(i).Name == "Objects" {
			continue
		}
		x, ok := quick.Value(v.Field(i).Type(), rng)
		if !ok {
			panic("quick cannot generate response." + v.Type().Field(i).Name)
		}
		v.Field(i).Set(x)
	}
	objs, _ := quick.Value(reflect.TypeOf([]jsonObject(nil)), rng)
	r.Objects = fromJSONObjects(objs.Interface().([]jsonObject))
	return reflect.ValueOf(r)
}

func wireRoundTripResp(t *testing.T, resp *response) response {
	t.Helper()
	var out response
	if err := decodeResponse(string(encodeRespBody(t, resp)), &out); err != nil {
		t.Fatalf("decode: %v", err)
	}
	return out
}

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

// validSegs turns quick's arbitrary ints into a segment column the decoders
// accept — len(raw) non-negative runs summing to total (one run when raw is
// empty and total is not) — keeping quick's choice of how many segments
// there are and roughly where they cut. JSON carries any ints; what a
// malformed column does is pinned by TestSegmentValidation and
// TestCompactReachCorruption, not by the equivalence properties.
func validSegs(raw []int, total int) []int {
	if len(raw) == 0 {
		if total == 0 {
			return nil
		}
		return []int{total}
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

// TestQuickRequestEquivalence pins the wire format to the JSON reference for
// every op: an arbitrary request — reach level included — must round-trip
// through both to the same struct.
func TestQuickRequestEquivalence(t *testing.T) {
	for _, op := range wireOps {
		op := op
		t.Run(op, func(t *testing.T) {
			f := func(req request) bool {
				req.Op = op
				viaJSON := jsonRoundTripReq(t, &req)
				viaWire := wireRoundTripReq(t, &req)
				if !reflect.DeepEqual(viaJSON, viaWire) {
					t.Logf("json: %#v\nwire: %#v", viaJSON, viaWire)
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
// object lists, hits with their distances, the segment column and the
// nil/empty field-map split.
func TestQuickResponseEquivalence(t *testing.T) {
	f := func(qr quickResponse) bool {
		resp := qr.response
		for i := range resp.Hits {
			if math.IsNaN(resp.Hits[i].Prob) || math.IsInf(resp.Hits[i].Prob, 0) {
				resp.Hits[i].Prob = float64(i)
			}
			resp.Hits[i].Dist &= math.MaxInt32 // distances are hop counts, never negative
		}
		resp.Segs = validSegs(resp.Segs, len(resp.Hits))
		viaJSON := jsonRoundTripResp(t, &resp)
		viaWire := wireRoundTripResp(t, &resp)
		if !reflect.DeepEqual(viaJSON, viaWire) {
			t.Logf("json: %#v\nwire: %#v", viaJSON, viaWire)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestNilEmptyFieldMap pins the one place the JSON reference distinguishes
// nil from empty: the "fields" object has no omitempty, so both states must
// survive the wire too.
func TestNilEmptyFieldMap(t *testing.T) {
	resp := response{Objects: []wireObject{
		{Database: "d", Collection: "c", Key: "nil-fields", Fields: core.Fields{}},
		{Database: "d", Collection: "c", Key: "empty-fields", Fields: fieldsOf(map[string]string{})},
		{Database: "d", Collection: "c", Key: "one-field", Fields: fieldsOf(map[string]string{"v": "1"})},
	}}
	out := wireRoundTripResp(t, &resp)
	if !out.Objects[0].Fields.IsZero() {
		t.Errorf("nil fields decoded to %#v", out.Objects[0].Fields)
	}
	if out.Objects[1].Fields.IsZero() || out.Objects[1].Fields.Len() != 0 {
		t.Errorf("empty fields decoded to %#v", out.Objects[1].Fields)
	}
	if v, _ := out.Objects[2].Fields.Get("v"); v != "1" {
		t.Errorf("fields decoded to %#v", out.Objects[2].Fields)
	}
	if !reflect.DeepEqual(jsonRoundTripResp(t, &resp), out) {
		t.Error("wire and reference disagree on nil/empty field maps")
	}
}

// TestDecodedFieldsShareNames pins the decoder's field layout: objects with
// the same field names share one names slice, and a frame whose names are
// not strictly increasing — which no encoder of sorted views writes — is
// refused rather than decoded into a view that breaks Get.
func TestDecodedFieldsShareNames(t *testing.T) {
	_, resp := getbatchFixture()
	out := wireRoundTripResp(t, resp)
	namesArray := func(f core.Fields) uintptr { return reflect.ValueOf(f).Field(0).Pointer() }
	for _, o := range out.Objects[1:] {
		if namesArray(o.Fields) != namesArray(out.Objects[0].Fields) {
			t.Fatal("decoded objects carry copies of one names slice")
		}
	}
	for _, names := range [][]string{{"b", "a"}, {"a", "a"}} {
		bad := response{Objects: []wireObject{{Database: "d", Collection: "c", Key: "k",
			Fields: core.SortedFields(names, []string{"1", "2"})}}}
		var got response
		if err := decodeResponse(string(encodeRespBody(t, &bad)), &got); !errors.Is(err, errFieldOrder) {
			t.Errorf("names %v: decode = %v, want errFieldOrder", names, err)
		}
	}
}

// TestFrontCodedFrontier pins the shared-prefix elision of a reach op's
// origins and of every hit list: a sorted global-key list must round-trip exactly and
// encode smaller than the same keys under an op that ships them plain, and
// corrupt prefix claims must be rejected.
func TestFrontCodedFrontier(t *testing.T) {
	keys := make([]string, 64)
	for i := range keys {
		keys[i] = "warehouse.transactions.tx-" + strings.Repeat("0", 4) + string(rune('a'+i%26)) + string(rune('a'+i/26))
	}
	front := &request{Op: opReach, Keys: keys, Level: 2}
	plain := &request{Op: opGetBatch, Keys: keys, Level: 2}
	out := wireRoundTripReq(t, front)
	if !reflect.DeepEqual(out.Keys, keys) {
		t.Fatalf("origins round trip mangled keys: %v", out.Keys)
	}
	fb, pb := encodeReqBody(t, front), encodeReqBody(t, plain)
	if len(fb) >= len(pb) {
		t.Errorf("front-coded frame (%d bytes) not smaller than plain keys (%d bytes)", len(fb), len(pb))
	}
	if !reflect.DeepEqual(jsonRoundTripReq(t, front), out) {
		t.Error("wire and reference disagree on the origins")
	}

	hits := make([]RemoteHit, len(keys))
	for i, k := range keys {
		hits[i] = RemoteHit{Key: k, Prob: 1 / float64(i+1), Dist: 1 + i%3}
	}
	if rout := wireRoundTripResp(t, &response{Hits: hits, Segs: []int{len(hits)}}); !reflect.DeepEqual(rout.Hits, hits) {
		t.Fatalf("hits round trip mangled hits")
	}

	// A prefix length exceeding the previous key is a corrupted frame, not a
	// panic or a bogus decode.
	body := encodeReqBody(t, &request{Op: opReach, Keys: []string{"ab", "abc"}})
	// The last key encodes as uvarint(2) "c"; flip the prefix length to an
	// impossible 9.
	idx := bytes.LastIndexByte(body, 2)
	if idx < 0 {
		t.Fatal("could not locate prefix byte")
	}
	body[idx] = 9
	var req request
	if err := decodeRequest(string(body), &req); !errors.Is(err, errFrontPrefix) {
		t.Fatalf("corrupt prefix = %v, want errFrontPrefix", err)
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
			Fields:     fieldsOf(map[string]string{"f" + name: "v"}),
		}
	}
	// Repeat the slice so back-references actually occur for early entries.
	objs = append(objs, objs...)
	resp := response{Objects: objs}
	if !reflect.DeepEqual(jsonRoundTripResp(t, &resp), wireRoundTripResp(t, &resp)) {
		t.Error("wire and reference disagree past the intern cap")
	}
}

// ---------------------------------------------------------------------------
// Corruption tables: like the WAL's torn-write tables, but for frames.

const testTrace = "00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01"

type framePair struct {
	name string
	req  *request
	resp *response
}

// corruptionFrames are the request/response pairs every corruption table
// runs over: one pair exercising every field, and a reach exchange of one
// origin and of two.
func corruptionFrames() []framePair {
	reach := func(origins []string, segs []int) (*request, *response) {
		return &request{
				Op: opReach, ID: 9, Trace: testTrace, Keys: origins, Level: 2,
			}, &response{ID: 9, Nodes: 70, Edges: 128, Segs: segs, Hits: []RemoteHit{
				{Key: "catalogue.albums.d3", Prob: 0.9, Dist: 1},
				{Key: "catalogue.albums.d31", Prob: 0.45, Dist: 3},
			}}
	}
	oneReq, oneResp := reach([]string{"catalogue.albums.d1"}, []int{2})
	segReq, segResp := reach([]string{"catalogue.albums.d1", "catalogue.albums.d2"}, []int{1, 1})
	return []framePair{
		{"every field", &request{
			ID: 7, Op: opGetBatch, Collection: "drop", Key: "k1",
			Keys: []string{"a", "bb", "ccc"}, Query: "SCAN drop",
			Level: 300, Trace: testTrace,
		}, &response{
			ID: 7, Objects: []wireObject{
				{Database: "d", Collection: "c", Key: "k1", Fields: fieldsOf(map[string]string{"a": "1", "b": "2"})},
				{Database: "d", Collection: "c", Key: "k2"},
			},
			Name: "discount", Kind: 2, Collections: []string{"drop", "promo"},
			KeyField: "id", Hits: []RemoteHit{{Key: "d.c.k1", Prob: 0.5, Dist: 2}},
			Nodes: 9, Edges: 4, Segs: []int{0, 1},
		}},
		{"reach", oneReq, oneResp},
		{"segmented reach", segReq, segResp},
	}
}

// TestCorruptionTruncation: every strict prefix of a valid frame must be
// rejected — all fields are always encoded, so any cut lands mid-field,
// inside the request's trace or the response's segment column.
func TestCorruptionTruncation(t *testing.T) {
	for _, f := range corruptionFrames() {
		reqBody := encodeReqBody(t, f.req)
		respBody := encodeRespBody(t, f.resp)
		for i := 0; i < len(reqBody); i++ {
			var out request
			if err := decodeRequest(string(reqBody[:i]), &out); err == nil {
				t.Fatalf("%s: request truncated at %d/%d decoded without error", f.name, i, len(reqBody))
			}
		}
		for i := 0; i < len(respBody); i++ {
			var out response
			if err := decodeResponse(string(respBody[:i]), &out); err == nil {
				t.Fatalf("%s: response truncated at %d/%d decoded without error", f.name, i, len(respBody))
			}
		}
	}
}

// TestCorruptionBitFlips: flipping any single bit of a valid frame must never
// panic or over-allocate. (Frames carry no checksum — TCP does — so a flip
// may legally decode to different data; the property is memory safety.)
func TestCorruptionBitFlips(t *testing.T) {
	for _, f := range corruptionFrames() {
		reqBody := encodeReqBody(t, f.req)
		respBody := encodeRespBody(t, f.resp)
		for off := 0; off < len(reqBody); off++ {
			for bit := 0; bit < 8; bit++ {
				mut := append([]byte(nil), reqBody...)
				mut[off] ^= 1 << bit
				var out request
				decodeRequest(string(mut), &out) //nolint:errcheck // must not panic; error is legal
			}
		}
		for off := 0; off < len(respBody); off++ {
			for bit := 0; bit < 8; bit++ {
				mut := append([]byte(nil), respBody...)
				mut[off] ^= 1 << bit
				var out response
				decodeResponse(string(mut), &out) //nolint:errcheck // must not panic; error is legal
			}
		}
	}
}

// TestCorruptionTrailingBytes: a frame with appended garbage must be
// rejected, not silently under-read. The trace closes a request and the
// segment column a response; what follows either is garbage.
func TestCorruptionTrailingBytes(t *testing.T) {
	for _, f := range corruptionFrames() {
		var req request
		if err := decodeRequest(string(append(encodeReqBody(t, f.req), 0x00)), &req); !errors.Is(err, errTrailingBytes) {
			t.Errorf("%s: request with trailing byte = %v, want errTrailingBytes", f.name, err)
		}
		var resp response
		if err := decodeResponse(string(append(encodeRespBody(t, f.resp), 0xFF)), &resp); !errors.Is(err, errTrailingBytes) {
			t.Errorf("%s: response with trailing byte = %v, want errTrailingBytes", f.name, err)
		}
	}
}

// TestCorruptionRandomBodies throws random bytes at both decoders — the
// in-test complement of FuzzDecodeFrame.
func TestCorruptionRandomBodies(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 5000; i++ {
		body := make([]byte, rng.Intn(256))
		rng.Read(body)
		if len(body) > 0 && i%2 == 0 {
			body[0] = frameVersion // steer half the cases past the version check
		}
		var req request
		decodeRequest(string(body), &req) //nolint:errcheck // must not panic
		var resp response
		decodeResponse(string(body), &resp) //nolint:errcheck // must not panic
	}
}

// TestCompactReachCorruption is the bad-segment-column table: the column is
// the last thing in a reach response, and one that does not partition the
// hits — an empty column under hits included — or claims more runs than
// bytes remain, is refused by the decoder.
func TestCompactReachCorruption(t *testing.T) {
	f := corruptionFrames()[2]
	// The column is the frame's last three bytes: count 2, runs 1 and 1.
	respBody := encodeRespBody(t, f.resp)
	if !bytes.HasSuffix(respBody, []byte{2, 1, 1}) {
		t.Fatalf("segment column is not the frame's tail: % x", respBody)
	}
	for _, tail := range [][]byte{
		{2, 1, 0},          // sums short of the list
		{2, 2, 1},          // sums past it
		{2, 3, 0},          // a run longer than the whole list
		{0},                // no runs for two hits
		{200, 1, 1, 1},     // claims more runs than bytes remain
		{1, 0xFF, 0xFF, 3}, // a run far beyond any frame
	} {
		var rout response
		mut := append(append([]byte(nil), respBody[:len(respBody)-3]...), tail...)
		if err := decodeResponse(string(mut), &rout); err == nil {
			t.Errorf("response with segment column %v decoded to %v", tail, rout.Segs)
		}
	}
}

// ---------------------------------------------------------------------------
// Allocation gates.

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
			Fields:     fieldsOf(map[string]string{"value": "40%", "tier": "gold"}),
		}
	}
	req := &request{ID: 3, Op: opGetBatch, Collection: "drop", Keys: keys}
	resp := &response{ID: 3, Objects: objs}
	return req, resp
}

// TestAllocGateBinaryEncode is the server-side promise: steady-state
// response encoding does zero allocations (pooled buffer, one Write).
func TestAllocGateBinaryEncode(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; alloc gate is plain-build only")
	}
	_, resp := getbatchFixture()
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := writeResponseFrame(io.Discard, resp, opGetBatch); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 0 {
		t.Errorf("response encode = %.1f allocs/op, want 0", allocs)
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
		if _, err := writeRequestFrame(io.Discard, req); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 0 {
		t.Errorf("request encode = %.1f allocs/op, want 0", allocs)
	}
}

// getbatchServerCycle is the full per-frame server cycle over the getbatch
// fixture: read+decode the request, encode+write the response.
func getbatchServerCycle(tb testing.TB) func() {
	req, resp := getbatchFixture()
	var frame bytes.Buffer
	if _, err := writeRequestFrame(&frame, req); err != nil {
		tb.Fatal(err)
	}
	raw := frame.Bytes()
	rd := bytes.NewReader(raw)
	return func() {
		rd.Reset(raw)
		var in request
		if _, err := readRequestFrame(rd, &in); err != nil {
			tb.Fatal(err)
		}
		if _, err := writeResponseFrame(io.Discard, resp, opGetBatch); err != nil {
			tb.Fatal(err)
		}
	}
}

// TestAllocGateGetBatchServerPath measures the server cycle against the same
// cycle through the JSON reference (unmarshal the request, marshal the
// response) and holds the format to at most half the reference's allocations
// — the bound it was adopted under (4 allocs/op against 209).
func TestAllocGateGetBatchServerPath(t *testing.T) {
	req, resp := getbatchFixture()
	rawJSON, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	ref := jsonResponse{response: *resp, Objects: toJSONObjects(resp.Objects)}
	jsonAllocs := testing.AllocsPerRun(200, func() {
		var in request
		if err := json.Unmarshal(rawJSON, &in); err != nil {
			t.Fatal(err)
		}
		if _, err := json.Marshal(ref); err != nil {
			t.Fatal(err)
		}
	})
	wireAllocs := testing.AllocsPerRun(200, getbatchServerCycle(t))
	t.Logf("getbatch server path: json reference %.0f allocs/op, wire %.0f allocs/op", jsonAllocs, wireAllocs)
	if wireAllocs > jsonAllocs/2 {
		t.Errorf("getbatch server path = %.0f allocs/op, want <= half of the JSON reference's %.0f", wireAllocs, jsonAllocs)
	}
}

// BenchmarkServerGetBatchCodec is the microbenchmark behind DESIGN §3.9's
// allocs/op record: the full decode-request/encode-response cycle.
func BenchmarkServerGetBatchCodec(b *testing.B) {
	cycle := getbatchServerCycle(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cycle()
	}
}

// ---------------------------------------------------------------------------
// The typed size violation and the byte counters.

// TestFrameTooLargeNotRetried pins the satellite: a size violation is
// final — typed, attributed to its op, never retried, and it must not poison
// the connection for later requests.
func TestFrameTooLargeNotRetried(t *testing.T) {
	srv := servedBackend(t)
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
	srv := servedBackend(t)
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

// ---------------------------------------------------------------------------
// Reach exchanges.

// TestCompactReachRoundTrip pins the reach frames: a reach request (origins
// and level, traced and untraced) and a reach response (per-origin hits with
// distances, stats, clean and errored) must round-trip exactly.
func TestCompactReachRoundTrip(t *testing.T) {
	keys := []string{
		"catalogue.albums.d1", "catalogue.albums.d12", "catalogue.albums.d2",
		"similar-items.items.n4", "transactions.inventory.a7",
	}
	for _, trace := range []string{"", testTrace} {
		for _, level := range []uint64{0, 3, math.MaxUint64} {
			req := request{Op: opReach, ID: 42, Trace: trace, Keys: keys, Level: level}
			if out := wireRoundTripReq(t, &req); !reflect.DeepEqual(out, req) {
				t.Fatalf("trace %q level %d: round trip = %#v, want %#v", trace, level, out, req)
			}
		}
	}

	hits := []RemoteHit{
		{Key: "catalogue.albums.d3", Prob: 0.9, Dist: 1},
		{Key: "catalogue.albums.d31", Prob: 0.45, Dist: 2},
		{Key: "transactions.sales.s9", Prob: 0.4, Dist: 300},
	}
	for _, errMsg := range []string{"", "reach: shard detached"} {
		resp := response{ID: 42, Error: errMsg, Nodes: 70, Edges: 128, Hits: hits, Segs: []int{2, 0, 1}}
		if out := wireRoundTripResp(t, &resp); !reflect.DeepEqual(out, resp) {
			t.Fatalf("error %q: round trip = %#v, want %#v", errMsg, out, resp)
		}
	}

	// No origins and no hits (degenerate but legal).
	if out := wireRoundTripReq(t, &request{Op: opReach, ID: 1}); out.Keys != nil || out.Level != 0 {
		t.Errorf("empty reach decoded to %#v", out)
	}
	if rout := wireRoundTripResp(t, &response{ID: 1}); rout.Hits != nil || rout.Segs != nil {
		t.Errorf("empty response decoded to %#v", rout)
	}
}

// TestQuickCompactReachEquivalence is the quick-check property for reach
// frames: any reach-shaped request (sorted or not, any level) and any reach
// answer (arbitrary probs and distances, split into any runs) must survive
// the round trip bit for bit.
func TestQuickCompactReachEquivalence(t *testing.T) {
	f := func(keys []string, level uint64, rawSegs []int, seed int64, traced bool) bool {
		rng := rand.New(rand.NewSource(seed))
		req := request{Op: opReach, ID: rng.Uint64(), Keys: keys, Level: level}
		resp := response{ID: req.ID, Nodes: rng.Intn(1000), Edges: rng.Intn(1000)}
		for _, k := range keys {
			resp.Hits = append(resp.Hits, RemoteHit{Key: k, Prob: rng.Float64(), Dist: rng.Intn(1 << 20)})
		}
		resp.Segs = validSegs(rawSegs, len(resp.Hits))
		if len(keys) == 0 {
			req.Keys = nil
		}
		if traced {
			req.Trace = testTrace
		}
		return reflect.DeepEqual(wireRoundTripReq(t, &req), req) && reflect.DeepEqual(wireRoundTripResp(t, &resp), resp)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// reachEcho wraps a plain store with a deterministic ShardReacher so the
// tests can drive reach exchanges without a cluster: every origin reaches
// origin+".x" at distance level+1 and probability 1/(level+2).
type reachEcho struct {
	core.Store
}

// One hit per origin: the hits split into runs of one.
func (reachEcho) ReachMany(ctx context.Context, origins []string, level int) ([]RemoteHit, []int, ReachInfo, error) {
	hits := make([]RemoteHit, len(origins))
	segs := make([]int, len(origins))
	for i, o := range origins {
		hits[i] = RemoteHit{Key: o + ".x", Prob: 1 / float64(level+2), Dist: level + 1}
		segs[i] = 1
	}
	return hits, segs, ReachInfo{Nodes: len(origins), Edges: 2 * len(origins)}, nil
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

// TestSegmentedReachExchange drives one many-origin reach exchange through a
// real server and checks the level arrives, one run per origin comes back
// with the hits' distances, and what the client put on the wire is exactly
// the one encoding of the request.
func TestSegmentedReachExchange(t *testing.T) {
	origins := []string{"d.c.k1", "d.c.k2", "d.c.k3"}
	srv := servedReachEcho(t)
	cli, err := DialConfig(srv.Addr(), ClientConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	sentBefore := clientBytesOut[opReach].Value()
	hits, segs, info, err := cli.ReachMany(context.Background(), origins, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(segs, []int{1, 1, 1}) || len(hits) != 3 || hits[2] != (RemoteHit{Key: "d.c.k3.x", Prob: 0.25, Dist: 3}) || info.Edges != 6 {
		t.Errorf("hits %v segs %v info %+v", hits, segs, info)
	}
	// ID 2: the meta exchange took ID 1.
	want := encodeReqBody(t, &request{Op: opReach, ID: 2, Keys: origins, Level: 2})
	if sent := clientBytesOut[opReach].Value() - sentBefore; sent != uint64(4+len(want)) {
		t.Errorf("reach sent %d bytes, want the frame's %d", sent, 4+len(want))
	}
}

// shortSegs answers every reach with all its hits in one run, however many
// origins it was asked for.
type shortSegs struct{ reachEcho }

func (s shortSegs) ReachMany(ctx context.Context, origins []string, level int) ([]RemoteHit, []int, ReachInfo, error) {
	hits, _, info, err := s.reachEcho.ReachMany(ctx, origins, level)
	return hits, []int{len(hits)}, info, err
}

// TestSegmentValidation: a level that does not fit an int, or an answer from
// the store behind the server that is not split one run per origin, is
// answered with an error frame, never with hits and never a panic.
func TestSegmentValidation(t *testing.T) {
	srv := servedReachEcho(t)
	ctx := context.Background()
	for name, req := range map[string]request{
		"level past MaxInt": {Op: opReach, Keys: []string{"a"}, Level: math.MaxInt + 1},
		"level MaxUint64":   {Op: opReach, Keys: []string{"a", "b"}, Level: math.MaxUint64},
	} {
		if resp := srv.dispatch(ctx, req); resp.Error == "" || len(resp.Hits) != 0 {
			t.Errorf("%s: dispatched to %+v, want an error frame", name, resp)
		}
	}
	if resp := srv.dispatch(ctx, request{Op: opReach, Keys: []string{"a", "b"}, Level: 2}); resp.Error != "" || !reflect.DeepEqual(resp.Segs, []int{1, 1}) {
		t.Errorf("well-formed reach answered %+v", resp)
	}

	// A store that merges two origins' runs must not reach the client as an
	// answer.
	db := kvstore.New("discount")
	bad, err := Serve(shortSegs{reachEcho{Store: connector.NewKeyValue(db)}}, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer bad.Close()
	if resp := bad.dispatch(ctx, request{Op: opReach, Keys: []string{"a", "b"}}); resp.Error == "" || len(resp.Hits) != 0 {
		t.Errorf("one run for two origins dispatched to %+v, want an error frame", resp)
	}
	cli, err := DialConfig(bad.Addr(), ClientConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	if _, _, _, err := cli.ReachMany(ctx, []string{"a", "b"}, 1); err == nil {
		t.Error("a response with one segment for two origins was accepted")
	}
}

// fakePeer accepts connections and answers every frame it reads with
// whatever reply builds for it, until reply returns nil.
func fakePeer(t *testing.T, reply func(req *request) []byte) net.Listener {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				defer conn.Close()
				for {
					var req request
					if _, err := readRequestFrame(conn, &req); err != nil {
						return
					}
					if _, err := conn.Write(reply(&req)); err != nil {
						return
					}
				}
			}()
		}
	}()
	return ln
}

// frame prefixes body with its length header.
func frame(body []byte) []byte {
	return append(binary.BigEndian.AppendUint32(nil, uint32(len(body))), body...)
}

// TestClientRejectsUnsegmentedAnswer: a peer that merges its origins'
// answers into one run sends a well-formed frame. The client must fail the
// leg — which degrades those origins — rather than hand one origin
// another's hits.
func TestClientRejectsUnsegmentedAnswer(t *testing.T) {
	ln := fakePeer(t, func(req *request) []byte {
		resp := response{ID: req.ID, Name: "merging-peer"}
		if req.Op == opReach {
			resp.Hits = []RemoteHit{{Key: "d.c.x", Prob: 0.5, Dist: 1}, {Key: "d.c.y", Prob: 0.5, Dist: 1}}
			resp.Segs = []int{2}
		}
		return frame(encodeRespBody(t, &resp))
	})
	cli, err := DialConfig(ln.Addr().String(), ClientConfig{PoolSize: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	ctx := context.Background()
	if _, _, _, err := cli.ReachMany(ctx, []string{"d.c.a", "d.c.b"}, 1); err == nil {
		t.Error("one run for two origins was accepted")
	}
	if hits, _, _, err := cli.ReachMany(ctx, []string{"d.c.a"}, 1); err != nil || len(hits) != 2 {
		t.Errorf("one run for one origin = %v, %v; want it to keep working", hits, err)
	}
}

// oldFormatFrames are well-formed frames of the seven formats this one
// replaced, keyed by their first body byte: bytes produced by the encoders of
// the last commit that had them.
var oldFormatFrames = map[byte]struct{ metaReq, reachReq, resp string }{
	'{': {
		metaReq:  `{"id":1,"op":"meta","codec":3}`,
		reachReq: `{"id":2,"op":"reach","probs":[1,0.5],"fr":["d.c.k1","d.c.k2"]}`,
		resp:     `{"id":1,"name":"old-peer","kind":1,"collections":["drop"],"codec":3}`,
	},
	0x02: {
		metaReq:  "\x02\x04\x01\x00\x00\x00\x00\x00\x01\x00\x00\x06\x00",
		reachReq: "\x02\x06\x02\x00\x00\x00\x02\x06d.c.k1\x06d.c.k2\x00\x01\x02\x00\x00\x00\x00\x00\x00\xf0?\x00\x00\x00\x00\x00\x00\xe0?\x00\x00\x00",
		resp:     "\x02\x01\x00\x00\x00\bold-peer\x02\x01\x04drop\x00\x00\x00\x00\x00\x00\x06\x00",
	},
	0x03: {
		reachReq: "\x03\x02\x04\x00\x06d.c.k1\x05\x012\x00\x00\x00\x00\x00\x00\xf0?\x00\x00\x00\x00\x00\x00\xe0?",
		resp:     "\x03\x02\x02\x03\x04\x00\x06d.c.k9\x00\x00\x00\x00\x00\x00\xd0?",
	},
	0x04: {
		reachReq: "\x04\x02\x04\x00\x06d.c.k1\x05\x012\x00\x00\x00\x00\x00\x00\xf0?\x00\x00\x00\x00\x00\x00\xe0?\x02\x01\x01",
		resp:     "\x04\x02\x02\x03\x04\x00\x06d.c.k9\x00\x00\x00\x00\x00\x00\xd0?\x02\x00\x01",
	},
	// 0x05 is 0x06's layout plus a request db column after the query.
	0x05: {
		metaReq:  "\x05\x04\x01\x00\x00\x00\x00\x00\x01\x00\x00\x00",
		reachReq: "\x05\x06\x02\x00\x00\x00\x02\x00\x06d.c.k1\x05\x012\x00\x01\x02\x00\x00\x00\x00\x00\x00\xf0?\x00\x00\x00\x00\x00\x00\xe0?\x00\x02\x01\x01",
		resp:     "\x05\x01\x00\x00\x00\bold-peer\x02\x01\x04drop\x00\x00\x00\x00\x00\x00\x00",
	},
	// 0x06 is this layout plus the snapshot op (code 7) and a response
	// snapshot + epoch column pair after the edge count.
	0x06: {
		metaReq:  "\x06\x04\x01\x00\x00\x00\x00\x00\x00\x00\x00",
		reachReq: "\x06\x06\x02\x00\x00\x00\x02\x00\x06d.c.k1\x05\x012\x00\x02\x00\x00\x00\x00\x00\x00\xf0?\x00\x00\x00\x00\x00\x00\xe0?\x00\x02\x01\x01",
		resp:     "\x06\x01\x00\x00\x00\bold-peer\x02\x01\x04drop\x00\x00\x00\x00\x00\x00\x00",
	},
	// 0x07 shipped a reach frontier: a request probs column where this
	// layout has the level, a request segment column after the trace, and no
	// hit distance.
	0x07: {
		metaReq:  "\a\x04\x01\x00\x00\x00\x00\x00\x00\x00\x00",
		reachReq: "\a\x06\x02\x00\x00\x00\x02\x00\x06d.c.k1\x05\x012\x00\x02\x00\x00\x00\x00\x00\x00\xf0?\x00\x00\x00\x00\x00\x00\xe0?\x00\x02\x01\x01",
		resp:     "\a\x01\x00\x00\x00\bold-peer\x02\x01\x04drop\x00\x00\x00\x00\x00",
	},
}

// TestOldFormatFramesRefused: there is one format and no negotiation. A
// server handed a well-formed frame of a retired format closes the connection
// without dispatching it and without harming other clients; a client whose
// peer answers in one fails the dial inside its retry budget.
func TestOldFormatFramesRefused(t *testing.T) {
	srv := servedReachEcho(t)
	healthy, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer healthy.Close()
	dispatched := func() uint64 {
		n := serverBadOps.Value()
		for _, c := range serverReqs {
			n += c.Value()
		}
		return n
	}

	for first, old := range oldFormatFrames {
		for _, body := range []string{old.metaReq, old.reachReq} {
			if body == "" {
				continue
			}
			if body[0] != first {
				t.Fatalf("fixture for 0x%02x opens with 0x%02x", first, body[0])
			}
			before := dispatched()
			raw, err := net.Dial("tcp", srv.Addr())
			if err != nil {
				t.Fatal(err)
			}
			if _, err := raw.Write(frame([]byte(body))); err != nil {
				t.Fatal(err)
			}
			// The server answers nothing and hangs up: the read ends in EOF, not
			// in a response frame and not in the deadline.
			raw.SetReadDeadline(time.Now().Add(10 * time.Second))
			if n, err := raw.Read(make([]byte, 64)); n != 0 || !errors.Is(err, io.EOF) {
				t.Errorf("0x%02x frame %q: read %d bytes, %v; want the connection closed", first, body, n, err)
			}
			raw.Close()
			// The connection is closed only after its dispatches drain, so the
			// counter is final here.
			if after := dispatched(); after != before {
				t.Errorf("0x%02x frame %q was dispatched (%d requests)", first, body, after-before)
			}
			if _, err := healthy.Get(context.Background(), "drop", "k1"); err != nil {
				t.Errorf("healthy client affected by a 0x%02x frame: %v", first, err)
			}
		}

		ln := fakePeer(t, func(*request) []byte { return frame([]byte(old.resp)) })
		framesBefore := clientFrames[opMeta].Value()
		cli, err := DialConfig(ln.Addr().String(), ClientConfig{
			Retry: resilience.RetryPolicy{MaxAttempts: 2, BaseBackoff: time.Microsecond, AttemptTimeout: 10 * time.Second},
		})
		if err == nil {
			cli.Close()
			t.Errorf("dial against a peer answering 0x%02x frames succeeded as %q", first, cli.Name())
			continue
		}
		if !strings.Contains(err.Error(), "unknown frame version") {
			t.Errorf("dial against a 0x%02x peer = %v, want the version refusal", first, err)
		}
		if attempts := clientFrames[opMeta].Value() - framesBefore; attempts != 2 {
			t.Errorf("dial against a 0x%02x peer made %d attempts, want the policy's 2", first, attempts)
		}
	}
}
