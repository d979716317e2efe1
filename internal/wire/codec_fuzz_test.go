package wire

import (
	"bytes"
	"testing"
)

// FuzzDecodeFrame throws arbitrary bodies at the request and response
// decoders — the same shape as the WAL's snapshot fuzzer. Two properties: no
// input may panic or over-allocate, and any body that decodes cleanly must
// survive re-encoding (the decoders accept nothing the encoders cannot
// reproduce, up to varint width and front-coding prefix choice: the corpus is
// seeded with canonical frames, and re-encoded frames are canonical by
// construction).
func FuzzDecodeFrame(f *testing.F) {
	for _, c := range corruptionFrames() {
		for _, encode := range []func(*encoder){
			func(e *encoder) { e.encodeRequest(c.req) }, //nolint:errcheck // fixture ops always encode
			func(e *encoder) { e.encodeResponse(c.resp) },
		} {
			e := getEncoder()
			encode(e)
			frame, err := e.finish("seed")
			if err != nil {
				f.Fatal(err)
			}
			f.Add(append([]byte(nil), frame[4:]...))
			putEncoder(e)
		}
	}
	f.Add([]byte{frameVersion})
	f.Add([]byte{frameVersion, 2, 0, 0})
	f.Add([]byte{0x04, 1, 0, 0}) // a retired format's first byte
	f.Add([]byte(oldFormatFrames[0x05].reachReq))
	f.Add([]byte(nil))

	f.Fuzz(func(t *testing.T, body []byte) {
		checkReencode(t, "request", body, decodeRequest, (*encoder).encodeRequest)
		checkReencode(t, "response", body, decodeResponse, func(e *encoder, r *response) error { e.encodeResponse(r); return nil })
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
