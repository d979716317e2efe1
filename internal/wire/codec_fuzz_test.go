package wire

import (
	"bytes"
	"testing"
)

// FuzzDecodeFrame throws arbitrary bodies at the generic codec-v2 decoders
// and the compact codec-v3 reach decoders — the
// same shape as the WAL's snapshot fuzzer. Two properties: no input may
// panic or over-allocate, and any body that decodes cleanly must survive
// re-encoding (the decoders accept nothing the encoders cannot reproduce,
// up to varint width: the corpus is seeded with canonical frames, and
// re-encoded frames are canonical by construction).
func FuzzDecodeFrame(f *testing.F) {
	req := corruptionFuzzReq()
	resp := corruptionFuzzResp()
	{
		e := getEncoder()
		if err := e.encodeRequest(req); err != nil {
			f.Fatal(err)
		}
		frame, err := e.finish(req.Op)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(append([]byte(nil), frame[4:]...))
		putEncoder(e)
	}
	{
		e := getEncoder()
		e.encodeResponse(resp)
		frame, err := e.finish("seed")
		if err != nil {
			f.Fatal(err)
		}
		f.Add(append([]byte(nil), frame[4:]...))
		putEncoder(e)
	}
	// Segmented reach frames in both binary layouts (the compact decoders
	// accept only their own magics, the generic ones only theirs, so one
	// corpus feeds all four).
	segReq := &request{ID: 3, Op: opReach, Frontier: []string{"d.c.k1", "d.c.k2", "d.c.k1"},
		Probs: []float64{1, 0.5, 0.25}, Segs: []int{2, 0, 1}}
	segResp := &response{ID: 3, Nodes: 3, Edges: 6, Segs: []int{1, 0, 1},
		DHits: []RemoteHit{{Key: "d.c.k3", Prob: 0.5}, {Key: "d.c.k4", Prob: 0.125}}}
	for _, encode := range []func(*encoder){
		func(e *encoder) { e.encodeRequest(segReq) },      //nolint:errcheck // reach always encodes
		func(e *encoder) { e.encodeDeltaRequest(segReq) }, //nolint:errcheck // reach always encodes
		func(e *encoder) { e.encodeResponse(segResp) },
		func(e *encoder) { e.encodeDeltaResponse(segResp) },
	} {
		e := getEncoder()
		encode(e)
		frame, err := e.finish(opReach)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(append([]byte(nil), frame[4:]...))
		putEncoder(e)
	}
	f.Add([]byte{binMagic})
	f.Add([]byte{binMagic, 2, 0, 0})
	f.Add([]byte{binMagicDeltaSeg, 1, 0, 0})
	f.Add([]byte(nil))

	f.Fuzz(func(t *testing.T, body []byte) {
		checkReencode(t, "request", body, decodeRequestV2, (*encoder).encodeRequest)
		checkReencode(t, "response", body, decodeResponseV2, func(e *encoder, r *response) error { e.encodeResponse(r); return nil })
		checkReencode(t, "compact request", body, decodeDeltaRequest, (*encoder).encodeDeltaRequest)
		checkReencode(t, "compact response", body, decodeDeltaResponse, func(e *encoder, r *response) error { e.encodeDeltaResponse(r); return nil })
	})
}

// checkReencode is the drift property for one decoder/encoder pair: a body
// that decodes cleanly must re-encode, decode again, and re-encode to the
// same bytes. The encodings are compared rather than the structs because a
// decoded prob may be NaN, which no struct comparison finds equal to itself;
// the layouts are injective, so equal frames mean equal structs.
func checkReencode[T any](t *testing.T, name string, body []byte, decode func(string, *T) error, encode func(*encoder, *T) error) {
	t.Helper()
	reencode := func(v *T) []byte {
		e := getEncoder()
		defer putEncoder(e)
		if err := encode(e, v); err != nil {
			t.Fatalf("decoded %s cannot re-encode: %v", name, err)
		}
		frame, err := e.finish("fuzz")
		if err != nil {
			t.Fatal(err)
		}
		return append([]byte(nil), frame[4:]...)
	}
	var v, again T
	if decode(string(body), &v) != nil {
		return
	}
	first := reencode(&v)
	if err := decode(string(first), &again); err != nil {
		t.Fatalf("re-encoded %s fails decode: %v", name, err)
	}
	if second := reencode(&again); !bytes.Equal(first, second) {
		t.Fatalf("%s drifted across re-encode:\n%#v\n%#v", name, v, again)
	}
}

// Seed fixtures exercising every field, shared with nothing so fuzz corpus
// minimization can mutate them freely.
func corruptionFuzzReq() *request {
	return &request{
		ID: 9, Op: opGetBatch, Collection: "drop", Key: "k",
		Keys: []string{"a", "b"}, Query: "q", Database: "d",
		Probs: []float64{0.5}, Trace: "00-abc-def-01", Codec: 2,
	}
}

func corruptionFuzzResp() *response {
	return &response{
		ID: 9, Objects: []wireObject{{Database: "d", Collection: "c", Key: "k",
			Fields: map[string]string{"f": "v"}}},
		Error: "", NotFound: true, Name: "n", Kind: 1,
		Collections: []string{"c"}, KeyField: "id",
		Hits:  []RemoteHit{{Key: "d.c.k", Prob: 0.25}},
		Nodes: 3, Edges: 2, Snapshot: []byte{9}, Epoch: 5, Codec: 2,
	}
}
